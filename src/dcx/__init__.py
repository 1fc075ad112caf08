"""dcx: combinatorics of directed complexes.

Oriented graded posets and molecules, boundary calculus, flow graphs and
layerings, frame-acyclicity, subdivision posets with homology evidence,
and directed complexes with their pasting diagrams.
"""

from .errors import (
    AmbiguityError,
    BoundaryMismatchError,
    BudgetError,
    DanglingIndexError,
    DcxError,
    IdentityViolationError,
    IncompatibleAttachmentError,
    LabelMismatchError,
    NotParallelError,
    NotRoundError,
    OverlapError,
    PreconditionError,
    ShapeNotAtomError,
)
from .ogposet import (
    Closed,
    OgIso,
    OgPoset,
    boundary,
    closure,
    delta,
    find_iso,
    hasse_cycle,
    is_hasse_acyclic,
    isomorphisms,
    oriented_hasse,
    unique_iso,
    validate,
)
from .molecule import (
    Molecule,
    Submolecule,
    arrow,
    atom,
    factors_through_atom,
    globe,
    is_molecule,
    is_round,
    join,
    molecule_iso,
    oriental,
    oriental_with_labels,
    parse_tree,
    paste,
    path,
    point,
    replay,
    splits,
    submolecules,
    suspension,
    theta_from_tree,
)
from .flow import (
    FlowGraph,
    FrameAcyclicity,
    check_layering_theory,
    frame_dim,
    is_frame_acyclic,
    layering_to_ordering,
    layerings,
    maxflow,
    orderings,
    pre_layerings,
    pre_orderings,
)
from .posets import FinPoset
from .homology import (
    HomologyReport,
    OrderComplex,
    homology,
    nerve,
    poset_homology,
    smith_diagonal,
)
from .subdivision import (
    SdPoset,
    Subdivision,
    contractibility_report,
    enumerate_sd,
    restrict_levels,
    sd_report_json,
    tree_leq,
)
from .dcomplex import (
    Cell,
    DirectedComplex,
    PastingDiagram,
    SemiSimplicialSet,
    Verdict,
    atoms_acyclic,
    boundary_diagram,
    enumerate_molecules,
    has_frame_acyclic_molecules,
    import_ssset,
    paste_diagrams,
    skeleton,
)
from .randgen import random_molecules

__version__ = "0.1.0"
