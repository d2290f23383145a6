# Build hook of the perf ledger. run.py configures the root project with
#   -DCMAKE_PROJECT_INCLUDE=<checkout>/bench/ledger/ledger.cmake
# so the driver links the library exactly as the project builds it (same
# build type and flags) without any edit outside bench/ledger/. The
# `parsim` target is defined later by add_subdirectory(src); target names
# resolve at generate time, so linking to it here is fine.
add_executable(perf_ledger ${CMAKE_CURRENT_LIST_DIR}/perf_ledger.cc)
target_compile_features(perf_ledger PRIVATE cxx_std_20)
target_compile_options(perf_ledger PRIVATE -Wall -Wextra)
target_link_libraries(perf_ledger PRIVATE parsim)
