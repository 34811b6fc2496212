# Build step behind the cyclops_git_rev target (top-level CMakeLists.txt):
# writes OUTPUT, a header that defines CYCLOPS_GIT_REV as the short git
# revision of SOURCE_DIR ("unknown" without a git binary or checkout),
# and leaves it untouched while the value is unchanged, so only a new
# revision recompiles the one file that includes it.
cmake_minimum_required(VERSION 3.16)

execute_process(
  COMMAND git rev-parse --short HEAD
  WORKING_DIRECTORY "${SOURCE_DIR}"
  RESULT_VARIABLE status
  OUTPUT_VARIABLE rev
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT status EQUAL 0 OR NOT rev)
  set(rev "unknown")
endif()

set(content "#define CYCLOPS_GIT_REV \"${rev}\"\n")
set(old "")
if(EXISTS "${OUTPUT}")
  file(READ "${OUTPUT}" old)
endif()
if(NOT old STREQUAL content)
  file(WRITE "${OUTPUT}" "${content}")
endif()
