# Runs a CLI tool with a flag it does not read and requires exit status 2
# with the flag named on stderr. The timeout bounds a tool that ignored
# the flag and started serving instead.
#
#   cmake -DGATEWAY=<serenade_gateway> -DSERVER=<serenade_server> \
#         -P cli_flags_test.cmake
function(expect_rejected binary flag)
  execute_process(COMMAND ${binary} ${ARGN}
                  RESULT_VARIABLE status
                  OUTPUT_QUIET
                  ERROR_VARIABLE stderr
                  TIMEOUT 20)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR "${binary} ${ARGN}: exit '${status}', want 2\n"
                        "${stderr}")
  endif()
  string(FIND "${stderr}" "--${flag}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${binary} ${ARGN}: stderr does not name --${flag}\n"
                        "${stderr}")
  endif()
endfunction()

expect_rejected(${GATEWAY} hedge-delay --hedge-delay 5)
expect_rejected(${SERVER} no-such-flag --no-such-flag)
