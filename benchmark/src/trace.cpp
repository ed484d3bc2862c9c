#include "trace.hpp"

#include <cstdio>

namespace bench {

Counters& Counters::operator+=(const Counters& o) {
  messages += o.messages;
  bytes += o.bytes;
  collectives += o.collectives;
  barriers += o.barriers;
  alltoallv += o.alltoallv;
  alltoallv_bytes += o.alltoallv_bytes;
  tcache_hits += o.tcache_hits;
  tcache_misses += o.tcache_misses;
  locate_calls += o.locate_calls;
  wire_queries += o.wire_queries;
  return *this;
}

Counters& Counters::operator-=(const Counters& o) {
  messages -= o.messages;
  bytes -= o.bytes;
  collectives -= o.collectives;
  barriers -= o.barriers;
  alltoallv -= o.alltoallv;
  alltoallv_bytes -= o.alltoallv_bytes;
  tcache_hits -= o.tcache_hits;
  tcache_misses -= o.tcache_misses;
  locate_calls -= o.locate_calls;
  wire_queries -= o.wire_queries;
  return *this;
}

Counters counters_of(const chaos::rt::MessageStats& s) {
  Counters c;
  c.messages = s.messages_sent;
  c.bytes = s.bytes_sent;
  c.collectives = s.collectives;
  c.barriers = s.barriers;
  c.alltoallv = s.alltoallv_calls;
  c.alltoallv_bytes = s.alltoallv_bytes;
  c.tcache_hits = s.tcache_hits;
  c.tcache_misses = s.tcache_misses;
  c.locate_calls = s.ttable_flat_calls;
  c.wire_queries = s.ttable_flat_wire_queries;
  return c;
}

int RankTrace::open(SpanName name, int job, int step, f64 wall, f64 mod,
                    const Counters& at) {
  if (n_ == buf_.size() || depth_ == kMaxDepth) {
    overflowed_ = true;
    return -1;
  }
  const int index = static_cast<int>(n_++);
  Span& s = buf_[static_cast<std::size_t>(index)];
  s.name = name;
  s.parent = depth_ > 0 ? stack_[depth_ - 1] : -1;
  s.job = job;
  s.step = step;
  s.wall_b = wall;
  s.mod_b = mod;
  s.delta = at;
  stack_[depth_++] = index;
  return index;
}

void RankTrace::close(int index, f64 wall, f64 mod, const Counters& at) {
  if (index < 0) return;
  Span& s = buf_[static_cast<std::size_t>(index)];
  s.wall_e = wall;
  s.mod_e = mod;
  Counters d = at;
  d -= s.delta;
  s.delta = d;
  --depth_;
}

Tracer::Tracer(int nranks, std::size_t capacity_per_rank)
    : epoch_(std::chrono::steady_clock::now()) {
  ranks_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) ranks_.emplace_back(capacity_per_rank);
}

Scope::Scope(Tracer* t, chaos::rt::Process& p, SpanName name, int step)
    : t_(t), p_(&p) {
  if (t_ == nullptr) return;
  index_ = t_->rank(p.rank()).open(name, t_->job, step, t_->now_us(),
                                   p.clock().now_us(),
                                   counters_of(p.stats()));
}

Scope::Scope(Tracer* t, SpanName name, int step) : t_(t) {
  if (t_ == nullptr) return;
  index_ = t_->rank(0).open(name, t_->job, step, t_->now_us(), 0.0, {});
}

Scope::~Scope() {
  if (t_ == nullptr) return;
  if (p_ != nullptr) {
    t_->rank(p_->rank()).close(index_, t_->now_us(), p_->clock().now_us(),
                               counters_of(p_->stats()));
  } else {
    t_->rank(0).close(index_, t_->now_us(), 0.0, {});
  }
}

void append_chrome_events(const Tracer& t, std::string& out, bool& first) {
  char buf[512];
  auto emit = [&](const char* text) {
    if (!first) out += ",\n";
    first = false;
    out += text;
  };
  for (int r = 0; r < t.nranks(); ++r) {
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,"
                  "\"args\":{\"name\":\"rank %d\"}}",
                  r, r);
    emit(buf);
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%d,\"tid\":0,"
                  "\"args\":{\"name\":\"wall\"}}",
                  r);
    emit(buf);
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%d,\"tid\":1,"
                  "\"args\":{\"name\":\"modeled\"}}",
                  r);
    emit(buf);
    for (const Span* s = t.rank(r).begin(); s != t.rank(r).end(); ++s) {
      const SpanInfo& info = kSpanInfo[static_cast<int>(s->name)];
      const Counters& d = s->delta;
      for (int tid = 0; tid < 2; ++tid) {
        const f64 ts = tid == 0 ? s->wall_b : s->mod_b;
        const f64 dur = tid == 0 ? s->wall_e - s->wall_b : s->mod_e - s->mod_b;
        std::snprintf(
            buf, sizeof buf,
            "{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"%s\",\"pid\":%d,"
            "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"job\":%d,"
            "\"step\":%d,\"messages_sent\":%lld,\"bytes_sent\":%lld,"
            "\"collectives\":%lld,\"barriers\":%lld,\"alltoallv_calls\":%lld,"
            "\"alltoallv_bytes\":%lld,\"tcache_hits\":%lld,"
            "\"tcache_misses\":%lld,\"ttable_flat_calls\":%lld,"
            "\"ttable_flat_wire_queries\":%lld}}",
            info.name, info.layer, r, tid, ts, dur, s->job, s->step,
            static_cast<long long>(d.messages), static_cast<long long>(d.bytes),
            static_cast<long long>(d.collectives),
            static_cast<long long>(d.barriers),
            static_cast<long long>(d.alltoallv),
            static_cast<long long>(d.alltoallv_bytes),
            static_cast<long long>(d.tcache_hits),
            static_cast<long long>(d.tcache_misses),
            static_cast<long long>(d.locate_calls),
            static_cast<long long>(d.wire_queries));
        emit(buf);
      }
    }
  }
}

}  // namespace bench
