// Serial reference semantics of the mini-Fortran-90D dialect (DESIGN.md §12),
// the VM's oracle: global-index loops, no distributions, schedules or clock.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "lang/ast.hpp"

namespace chaos::lang {

struct ReferenceArray {
  std::vector<f64> value;
  /// |value before its first ADD| + Σ|ADD contributions|, 0 where no ADD
  /// touched the element. Not carried into later reads of the sum.
  std::vector<f64> scale;
};

/// Runs @p program on an Instance's host inputs, keyed by upper-case name, and
/// returns every REAL*8 array. Throws LangError on a malformed program, or on
/// a FORALL execution that assigns one element twice (the VM's answer would
/// then depend on P).
[[nodiscard]] std::map<std::string, ReferenceArray> evaluate_reference(
    const Program& program, const std::map<std::string, i64>& params,
    const std::map<std::string, std::vector<f64>>& reals,
    const std::map<std::string, std::vector<i64>>& ints);

/// First index where |vm - ref| > 1e-12 * scale, or -1: exact
/// where scale is 0 (assignments, MAX, MIN). A size mismatch reports 0.
[[nodiscard]] i64 first_reference_mismatch(const std::vector<f64>& vm,
                                           const ReferenceArray& ref);

}  // namespace chaos::lang
