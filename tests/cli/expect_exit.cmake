# Runs one CLI invocation and requires a given exit code and a
# message on stderr -- a clean fatal() exit, not an abort, which
# PASS_REGULAR_EXPRESSION alone would not tell apart.
#
# Invoked by ctest as:
#   cmake -DTOOL=<tool> "-DARGS=<space-separated args>" -DEXIT=<code>
#         -DREGEX=<stderr pattern> -P this_file

if(NOT TOOL OR NOT DEFINED EXIT OR NOT REGEX)
    message(FATAL_ERROR "TOOL, EXIT and REGEX must be defined")
endif()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
    COMMAND ${TOOL} ${args}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXIT}")
    message(FATAL_ERROR
        "${TOOL} ${ARGS}: exit '${rc}', expected ${EXIT}\n${err}")
endif()
if(NOT err MATCHES "${REGEX}")
    message(FATAL_ERROR
        "${TOOL} ${ARGS}: stderr does not match '${REGEX}'\n${err}")
endif()
