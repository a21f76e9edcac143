# Runs flatbench built without the eval-cache probe on a short
# serve-trace run and requires a correct result that reports the cache
# metrics as zero. Invoked by ctest with -DBENCH=<flatbench> and
# -DDIR=<build dir>.
execute_process(
    COMMAND ${BENCH} --workload serve-trace --seed 3 --seconds 1
            --trace ${DIR}/no_cache_probe.trace.json
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "flatbench exited with ${rc}")
endif()
string(JSON correct GET "${out}" correct)
string(JSON probe GET "${out}" fingerprint cache_probe)
string(JSON bytes GET "${out}" metrics costmodel.cache.bytes value)
if(NOT correct STREQUAL "ON" OR NOT probe STREQUAL "OFF"
   OR NOT bytes EQUAL 0)
    message(FATAL_ERROR "unexpected no-probe result: ${out}")
endif()
