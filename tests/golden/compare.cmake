# Runs one example and compares its stdout byte for byte with a golden file.
#
#   cmake -DEXE=<example binary> -DGOLDEN=<golden .txt> -P compare.cmake
#
# Fails if the example exits nonzero or if any byte of its stdout differs
# from the golden file; a mismatch reports the first differing line.
execute_process(COMMAND "${EXE}" OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with status ${rc}")
endif()
file(READ "${GOLDEN}" expected)

set(lineno 1)
while(NOT actual STREQUAL expected)
  string(FIND "${actual}" "\n" a_end)
  string(FIND "${expected}" "\n" e_end)
  string(SUBSTRING "${actual}" 0 ${a_end} a_line)
  string(SUBSTRING "${expected}" 0 ${e_end} e_line)
  if(NOT a_line STREQUAL e_line OR a_end EQUAL -1 OR e_end EQUAL -1)
    if(actual STREQUAL "")
      set(a_line "<end of output>")
    endif()
    if(expected STREQUAL "")
      set(e_line "<end of output>")
    endif()
    message(FATAL_ERROR "${EXE}: stdout differs from ${GOLDEN} "
                        "at line ${lineno}\n"
                        "  expected: ${e_line}\n"
                        "  actual:   ${a_line}")
  endif()
  math(EXPR a_end "${a_end} + 1")
  math(EXPR e_end "${e_end} + 1")
  string(SUBSTRING "${actual}" ${a_end} -1 actual)
  string(SUBSTRING "${expected}" ${e_end} -1 expected)
  math(EXPR lineno "${lineno} + 1")
endwhile()
