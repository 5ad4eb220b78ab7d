# Fails when a gtest binary lists a test whose name embeds raw parameter
# bytes ("24-byte object <...>"): gtest falls back to that form for a
# parameterized case with no name generator, and when the struct holds a
# pointer the name changes in every process, so runs cannot be compared
# test by test.
#
# Usage: cmake -P check_test_names.cmake <gtest binary>...
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 3 ${last})
  set(binary "${CMAKE_ARGV${i}}")
  execute_process(COMMAND "${binary}" --gtest_list_tests
                  OUTPUT_VARIABLE listing RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${binary} --gtest_list_tests exited with ${rc}")
  endif()
  string(FIND "${listing}" "-byte object <" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "${binary} names a test after raw parameter bytes; "
                        "give its INSTANTIATE_TEST_SUITE_P a name generator:\n"
                        "${listing}")
  endif()
endforeach()
