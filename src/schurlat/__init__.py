"""schurlat: SAT-based search and certification of modified Schur numbers in
integer lattices, with a constructive Ramsey/Vandermonde witness extractor."""

__version__ = "0.1.0"

from .lattice import (
    Coloring,
    Point,
    SchurTuple,
    Violation,
    det,
    enumerate_tuples,
    induced_coloring,
    is_j_nondegenerate,
    lift_solution,
    rank,
    verify_free,
)
from .encoder import (
    CnfFormula,
    coloring_to_assignment,
    decode_model,
    encode,
    var_index,
    var_point_color,
)
from .sat import (
    Budget,
    Sat,
    SolveResult,
    Unknown,
    Unsat,
    check_model,
    parse_solver_output,
    read_dimacs,
    solve_external,
    solve_internal,
    write_dimacs,
)
from .search import (
    Certificate,
    Exact,
    Inconclusive,
    LowerBound,
    Provenance,
    SearchOutcome,
    UnsatRecord,
    brute_force_oracle,
    find_schur_number,
    load_certificate,
    probe,
    save_certificate,
    verify_certificate,
)
from .witness import (
    EdgeColoredGraph,
    SchurWitness,
    extract_schur_witness,
    find_monochromatic_clique,
    graph_from_lattice_coloring,
    vandermonde_det,
    vandermonde_points,
)
from .bounds import (
    RamseyEntry,
    SchurUpperBound,
    known_schur_numbers,
    load_ramsey_table,
    ramsey_number,
    schur_3k_formula,
    schur_upper_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
