# Round-trip smoke test of the persistent index path, run by ctest:
# generate a dataset, write a sharded GFIX index, inspect
# it under full verification, then serve queries from the mapped file.
# Invoked as: cmake -DGFK=<path-to-gfk> -DWORK=<scratch-dir> -P this-file

function(run_gfk)
  execute_process(COMMAND ${GFK} ${ARGN} RESULT_VARIABLE code
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "gfk ${ARGN} failed (${code}):\n${out}\n${err}")
  endif()
endfunction()

file(MAKE_DIRECTORY ${WORK})
set(DS ${WORK}/index_ds.gfsz)
set(FP ${WORK}/index_fp.gfsz)
set(INDEX ${WORK}/index.gfix)

run_gfk(generate --dataset DBLP --scale 0.02 --out ${DS})
run_gfk(index write --in ${DS} --bits 256 --shards 3 --out ${INDEX})
run_gfk(index info --in ${INDEX} --full)
run_gfk(serve --index ${INDEX} --requests 128 --clients 2 --k 5)

# The --store path: index a pre-built fingerprint store.
run_gfk(fingerprint --in ${DS} --bits 256 --out ${FP})
run_gfk(index write --store ${FP} --out ${INDEX})
run_gfk(serve --index ${INDEX} --requests 64 --clients 2 --k 5)

# Error paths must fail cleanly (non-zero exit, no crash).
execute_process(COMMAND ${GFK} serve --index ${WORK}/missing.gfix
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(code EQUAL 0)
  message(FATAL_ERROR "gfk serve on a missing index must fail")
endif()
file(WRITE ${WORK}/garbage.gfix "GFIXnot really an index, just 64+ bytes of text to get past the size floor")
execute_process(COMMAND ${GFK} index info --in ${WORK}/garbage.gfix
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(code EQUAL 0)
  message(FATAL_ERROR "gfk index info on a corrupt file must fail")
endif()
