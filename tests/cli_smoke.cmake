# CLI smoke test: run ptucker_cli end-to-end on a tiny synthetic tensor
# (--selftest) and assert exit code 0 plus parseable output; then check
# that a training tensor with a repeated coordinate is refused, with a
# named error and exit 1, by every --method and by `solve`.
#
# Invoked by ctest as:
#   cmake -DPTUCKER_CLI=<path> -DWORK_DIR=<dir> -P cli_smoke.cmake

if(NOT PTUCKER_CLI)
  message(FATAL_ERROR "PTUCKER_CLI not set")
endif()
if(NOT WORK_DIR)
  message(FATAL_ERROR "WORK_DIR not set")
endif()

execute_process(
  COMMAND ${PTUCKER_CLI} --selftest --max-iters 5 --seed 42
  OUTPUT_VARIABLE smoke_out
  ERROR_VARIABLE smoke_err
  RESULT_VARIABLE smoke_rc
)

if(NOT smoke_rc EQUAL 0)
  message(FATAL_ERROR
    "ptucker_cli --selftest exited with ${smoke_rc}\n"
    "stdout:\n${smoke_out}\nstderr:\n${smoke_err}")
endif()

# The run must report a parseable final error line and the selftest gate.
if(NOT smoke_out MATCHES "final reconstruction error \\(Eq\\. 5\\): [0-9]+\\.[0-9]+")
  message(FATAL_ERROR "missing/unparseable final-error line in:\n${smoke_out}")
endif()
if(NOT smoke_out MATCHES "selftest OK")
  message(FATAL_ERROR "missing 'selftest OK' in:\n${smoke_out}")
endif()

# Ω is a set: `1 1 1` twice must not decompose as "3 observed entries".
file(MAKE_DIRECTORY ${WORK_DIR})
set(dup_path ${WORK_DIR}/duplicate_coordinates.tns)
file(WRITE ${dup_path} "1 1 1 1.0\n1 1 1 1.0\n2 2 2 3.0\n")
foreach(method ptucker cp hooi shot csf wopt)
  execute_process(
    COMMAND ${PTUCKER_CLI} --input ${dup_path} --ranks 1,1,1
            --method ${method} --max-iters 2
    OUTPUT_VARIABLE dup_out
    ERROR_VARIABLE dup_err
    RESULT_VARIABLE dup_rc
  )
  if(NOT dup_rc EQUAL 1 OR NOT dup_err MATCHES "tensor has duplicate coordinates")
    message(FATAL_ERROR
      "--method ${method} on a repeated coordinate exited ${dup_rc} "
      "(want 1 with a duplicate-coordinates error)\n"
      "stdout:\n${dup_out}\nstderr:\n${dup_err}")
  endif()
endforeach()
execute_process(
  COMMAND ${PTUCKER_CLI} solve --input ${dup_path} --ranks 1,1,1
          --workers 2 --max-iters 2
  OUTPUT_VARIABLE dup_out
  ERROR_VARIABLE dup_err
  RESULT_VARIABLE dup_rc
)
if(NOT dup_rc EQUAL 1 OR NOT dup_err MATCHES "tensor has duplicate coordinates")
  message(FATAL_ERROR
    "solve on a repeated coordinate exited ${dup_rc} "
    "(want 1 with a duplicate-coordinates error)\n"
    "stdout:\n${dup_out}\nstderr:\n${dup_err}")
endif()

message(STATUS "cli_smoke passed")
