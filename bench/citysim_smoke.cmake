# citysim-smoke: validate the "city" object (v4, schema now v6) bench_runtime emits and the
# citysim example's streamed JSONL output.
#
# bench_runtime side: run a tiny 2x2 city and require the BENCH JSON to
# carry a "city" object with the grid echoed back, a positive
# client_sessions_per_sec, non-empty throughput CDF, FF/HD-mesh gain fields,
# deterministic = ON (checksums AND JSONL bytes identical across the shard x
# thread grid — a violation also fails bench_runtime's exit code), and
# exactly one of speedup_vs_1t / skipped_reason (single visible CPU).
#
# citysim side: run the example with --jsonl and require one well-formed
# ff-city-session-v1 JSON object per line, sessions = sites x clients x 2
# lines in global session order, and the summary line on stdout.
#
# Invoked by CTest as:
#   cmake -DBENCH_RUNTIME=<path> -DCITYSIM=<path> -DWORK_DIR=<dir>
#         -P citysim_smoke.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)
if(NOT BENCH_RUNTIME)
  message(FATAL_ERROR "pass -DBENCH_RUNTIME=<path to bench_runtime>")
endif()
if(NOT CITYSIM)
  message(FATAL_ERROR "pass -DCITYSIM=<path to the citysim example>")
endif()
if(NOT WORK_DIR)
  set(WORK_DIR ${CMAKE_CURRENT_BINARY_DIR})
endif()

set(bench_json ${WORK_DIR}/BENCH_runtime_citysim_smoke.json)
execute_process(
  COMMAND ${BENCH_RUNTIME} --clients 2 --reps 1 --duration 5e-4
          --city-grid 2 --city-clients 2
          --out ${bench_json}
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_runtime failed (rc=${rc}); a nonzero exit also "
                      "means a determinism violation.\n${out}\n${err}")
endif()

file(READ ${bench_json} doc)

string(JSON schema ERROR_VARIABLE jerr GET "${doc}" schema)
if(jerr)
  message(FATAL_ERROR "bench JSON does not parse: ${jerr}")
endif()
if(NOT schema STREQUAL "ff-bench-runtime-v6")
  message(FATAL_ERROR "unexpected schema tag '${schema}' (want ff-bench-runtime-v6)")
endif()

# The v4 city object: config echoed back, session count consistent.
string(JSON grid ERROR_VARIABLE jerr GET "${doc}" city grid)
if(jerr)
  message(FATAL_ERROR "bench JSON missing v4 'city' object: ${jerr}")
endif()
if(NOT grid EQUAL 2)
  message(FATAL_ERROR "city.grid = ${grid}, expected the requested 2")
endif()
string(JSON sessions GET "${doc}" city sessions)
if(NOT sessions EQUAL 16)
  message(FATAL_ERROR "city.sessions = ${sessions}, expected 2x2 sites x 2 "
                      "clients x 2 directions = 16")
endif()

foreach(field wall_ms_1t wall_ms client_sessions_per_sec
        ff_total_mbps hd_mesh_total_mbps direct_total_mbps
        gain_vs_hd_mesh median_gain_vs_hd_mesh)
  string(JSON v ERROR_VARIABLE jerr GET "${doc}" city ${field})
  if(jerr)
    message(FATAL_ERROR "city object missing '${field}': ${jerr}")
  endif()
  if(NOT v GREATER 0)
    message(FATAL_ERROR "city.${field} = ${v}, expected > 0")
  endif()
endforeach()

# The whole-city FF throughput CDF must be present, non-empty, and end at
# cumulative probability 1.
string(JSON ncdf ERROR_VARIABLE jerr LENGTH "${doc}" city throughput_cdf_mbps)
if(jerr)
  message(FATAL_ERROR "city object missing 'throughput_cdf_mbps' array: ${jerr}")
endif()
if(NOT ncdf GREATER 0)
  message(FATAL_ERROR "city.throughput_cdf_mbps is empty")
endif()
math(EXPR last "${ncdf} - 1")
string(JSON lastp GET "${doc}" city throughput_cdf_mbps ${last} p)
if(NOT lastp EQUAL 1)
  message(FATAL_ERROR "city CDF ends at p=${lastp}, expected 1")
endif()

# Determinism across the shard x thread grid (checksums and JSONL bytes).
string(JSON det GET "${doc}" city deterministic)
if(NOT det STREQUAL "ON")
  message(FATAL_ERROR "city.deterministic = ${det}: results were not "
                      "bit-identical across shard / thread counts")
endif()
string(JSON checksum GET "${doc}" city checksum)
if(NOT checksum MATCHES "^[0-9a-f]+$")
  message(FATAL_ERROR "city.checksum '${checksum}' is not a hex FNV-1a digest")
endif()

# The honest-perf rule: a speedup ratio on multi-core hosts, an explicit
# skipped_reason on single-CPU ones — never both, never neither.
string(JSON speedup ERROR_VARIABLE sp_err GET "${doc}" city speedup_vs_1t)
string(JSON skipped ERROR_VARIABLE sk_err GET "${doc}" city skipped_reason)
if(sp_err AND sk_err)
  message(FATAL_ERROR "city carries neither speedup_vs_1t nor skipped_reason; "
                      "one of the two must explain the perf claim")
endif()
if(NOT sp_err AND NOT sk_err)
  message(FATAL_ERROR "city carries both speedup_vs_1t and skipped_reason; "
                      "they are mutually exclusive")
endif()

message(STATUS "citysim smoke OK: v4 city object valid in ${bench_json}")

# ---- the citysim example: streamed per-session JSONL.
set(jsonl ${WORK_DIR}/citysim_smoke.jsonl)
execute_process(
  COMMAND ${CITYSIM} 2 2 --clients 2 --seed 7 --shards 4 --jsonl ${jsonl}
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "citysim failed (rc=${rc}).\n${out}\n${err}")
endif()
if(NOT out MATCHES "FF gain vs HD mesh:")
  message(FATAL_ERROR "citysim did not print the gain summary line.\n${out}")
endif()

file(STRINGS ${jsonl} lines)
list(LENGTH lines nlines)
if(NOT nlines EQUAL 16)
  message(FATAL_ERROR "expected 16 JSONL lines (2x2 sites x 2 clients x 2 "
                      "directions), got ${nlines} in ${jsonl}")
endif()
set(i 0)
foreach(line IN LISTS lines)
  string(JSON sess ERROR_VARIABLE jerr GET "${line}" session)
  if(jerr)
    message(FATAL_ERROR "JSONL line ${i} does not parse: ${jerr}\n${line}")
  endif()
  if(NOT sess EQUAL ${i})
    message(FATAL_ERROR "JSONL line ${i} carries session=${sess}: the stream "
                        "is not in global session order")
  endif()
  foreach(field site client dir x y ff_mbps hd_mesh_mbps direct_mbps interference_dbm)
    string(JSON v ERROR_VARIABLE jerr GET "${line}" ${field})
    if(jerr)
      message(FATAL_ERROR "JSONL line ${i} missing '${field}': ${jerr}\n${line}")
    endif()
  endforeach()
  math(EXPR i "${i} + 1")
endforeach()

message(STATUS "citysim smoke OK: ${jsonl} is ${nlines} well-formed "
               "ff-city-session-v1 lines in session order")
