"""The CLI ops pinned outside the benchmark's capture: each job's top order,
and the stdout of the ops that bench/golden/stdout.json does not hold.
Stdlib only besides the package, as scripts/golden_check.py reads it on
every interpreter that requires-python admits."""

from dyckposet.cli import EXIT_OK

# each job's top order with a tracemalloc bound in MiB on the call's peak;
# the peaks were read in a fresh process
AT_LIMIT = [
    # peaks near 1.06 MiB (2.34 MiB while the chain DP kept every prefix
    # list); a dense 1,430 x 1,430 zeta matrix alone would hold over 15 MiB
    # of pointers
    (("chains", "--n", "8"), "paths", 3),
    # peaks near 0.23 MiB, building no path
    (("qt", "--n", "8"), "paths", 3),
    # peaks near 0.37 MiB; listing the 4,782,969 parking functions takes
    # about 860 MB of RSS
    (("parking", "--n", "8"), "paths", 2),
    # peaks near 0.24 MiB
    (("chromatic", "--n", "4"), "chromatic", 1),
    # peaks near 12.46 MiB, counting its 37,620,704 order ideals in 94,012
    # memo states; listing them exhausted a 4 GB address limit
    (("poset", "--n", "6"), "antichains", 16),
    # peaks near 0.24 MiB
    (("antichains", "--n", "5", "--mode", "maximal"), "maximal_antichains",
     1),
]
# the stdout of the AT_LIMIT ops that have no golden entry, and of parking
# --n 7, each from a run whose in-run checks passed: the chains census
# checks every coefficient of its chain DP against the k-fans, and its
# maximal count by solve and by the hook-length formula; the poset census
# checks each field against a second route; the parking census checks the
# closed form, the filter and the labelled paths against each other, and
# the groups against C_n.  The two CSV captures are the only ones that hold
# a polynomial, rendered term by term as exponents:coefficient;...
PINNED = {
    "--format csv chains --n 3": {"exit": EXIT_OK, "stdout": (
        "quantity,value\norder,3\ntotal_chains,24\nmaximal_chains,2\n"
        "maximal_chains_hook,2\nchain_polynomial,0:1;1:5;2:9;3:7;4:2\n")},
    "--format csv qt --n 3": {"exit": EXIT_OK, "stdout": (
        "quantity,value\norder,3\nqt_catalan,0:3:1;1:1:1;1:2:1;2:1:1;3:0:1\n"
        "area_analog,0:0:1;1:0:2;2:0:1;3:0:1\n"
        "inv_analog,0:0:1;1:0:1;2:0:2;3:0:1\n"
        "maj_analog,0:0:1;2:0:1;3:0:1;4:0:1;6:0:1\n"
        "symmetric,1\ncount_specialization,5\n")},
    "chains --n 8": {"exit": EXIT_OK, "stdout": (
        '{"order":"8","total_chains":"31491961129357837056",'
        '"maximal_chains":"48608795688960",'
        '"maximal_chains_hook":"48608795688960",'
        '"chain_polynomial":[[0,"1"],[1,"1430"],[2,"377806"],[3,"36362118"],'
        '[4,"1734315518"],[5,"48647382718"],[6,"892526276490"],'
        '[7,"11498019589944"],[8,"109315888675917"],[9,"795297131770842"],'
        '[10,"4548866967075262"],[11,"20879619136755590"],'
        '[12,"78130612955034288"],[13,"241232051440310634"],'
        '[14,"620192717348975394"],[15,"1336605533318505996"],'
        '[16,"2425812327752412300"],[17,"3717481985562220824"],'
        '[18,"4814373724512549312"],[19,"5263544137288851072"],'
        '[20,"4843197451210980864"],[21,"3730393777851427840"],'
        '[22,"2385358375791181824"],[23,"1251148893647634432"],'
        '[24,"529087567280340992"],[25,"175913854738628608"],'
        '[26,"44269447990476800"],[27,"7925259063787520"],'
        '[28,"899262720245760"],[29,"48608795688960"]]}\n')},
    "parking --n 7": {"exit": EXIT_OK, "stdout": (
        '{"order":"7","count_closed":"262144","count_enumerated":"262144",'
        '"labelled_path_count":"262144","content_group_count":"429"}\n')},
    "parking --n 8": {"exit": EXIT_OK, "stdout": (
        '{"order":"8","count_closed":"4782969","count_enumerated":"4782969",'
        '"labelled_path_count":"4782969","content_group_count":"1430"}\n')},
    "poset --n 6": {"exit": EXIT_OK, "stdout": (
        '{"order":"6","size":"132","interval_count":"4719",'
        '"cover_edge_count":"330",'
        '"rank_sizes":"1;1;2;3;5;7;9;11;14;16;16;17;14;10;5;1",'
        '"order_ideal_count":"37620704","width":"17","min_chain_cover":"17",'
        '"min_antichain_cover":"16"}\n')},
}

