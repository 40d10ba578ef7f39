"""Task DAGs, critical paths, scheduling bounds and IP emission for tiled
dense linear algebra (Cholesky factorization/inversion, QR elimination
trees, Strassen-Winograd multiplication)."""

from .taskgraph import (
    ALL_KINDS, BARRIER, COPY, GEADD, GEMM, GEQRT, LAUUM, POTRF, SYRK, TRMM,
    TRSM, TRTRI, TSMQR, TSQRT, TTMQR, TTQRT, UNMQR,
    AlapProfile, CpAnnotation, Task, TaskGraph, TileRef, WeightModel,
    alap_profile, annotate_cp, asap_times, build_from_trace, t_seq, trace_cp,
)
from .cholesky import (
    CholInvConfig, chol_cp_oracle, gen_chol_fact, gen_chol_inversion,
    inversion_steps,
)
from .qr import (
    ColumnIter, CoarseTable, ElimEntry, EliminationList, QrBuild,
    binary_tree_list, build_tree, coarse_cp_oracle, coarse_schedule,
    column_asap_free, eager_coarse, elim_weight, fibonacci_cp_bounds,
    fibonacci_x, flattree_cp_composed, flattree_cp_oracle, grasap_build,
    is_iterate, optiter, plasmatree_list, tiled_build, tiled_translation,
    total_weight, verify_weight, zeroed_table_csv,
)
from .sched import (
    BoundsRow, Schedule, alpha_min, bounds_table, check_schedule, gamma_ub,
    list_schedule, lost_area, lower_bound_factor, sync_chol_graph,
)
from .strassen import (
    StrassenParams, gemm_flops, gen_strassen, gen_tiled_gemm, r_min,
    strassen_cp, strassen_flops, strassen_task_count, strassen_weight_model,
    temp_tile_count,
)
from .ipmodel import (
    IPModel, check_feasible, complete_assignment, emit_ip, parse_assignment,
    schedule_to_assignment,
)
