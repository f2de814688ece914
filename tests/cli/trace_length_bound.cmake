# `suit_trace info` on a text trace whose header claims a stream of
# 2^56 instructions -- one past the longest a packed trace event can
# address -- must end in fatal()'s exit 1 with the reader's message,
# not in the Trace constructor's assertion abort.
#
# Invoked by ctest as:
#   cmake -DTOOL=<suit_trace> -DWORK_DIR=<dir> -P this_file

if(NOT TOOL OR NOT WORK_DIR)
    message(FATAL_ERROR "TOOL and WORK_DIR must be defined")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(trace_file "${WORK_DIR}/too_long.sft")
file(WRITE "${trace_file}"
    "suit-trace v1\nname h\ninstructions 72057594037927936\n"
    "ipc 1\nweight 1\nevents 1\n10 IMUL\n")

set(ARGS "info ${trace_file}")
set(EXIT 1)
set(REGEX "claims 72057594037927936 instructions")
include("${CMAKE_CURRENT_LIST_DIR}/expect_exit.cmake")
