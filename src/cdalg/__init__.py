"""Exact arithmetic and zero-divisor analysis for the Cayley-Dickson
sequence of real algebras (reals, complexes, quaternions, octonions,
sedenions, and beyond).

Elements carry rational coordinates, so every identity checked here is
checked exactly; floating point enters only through the spectral and
rank routines that say so in their names.
"""

from .algebra import (Element, LevelError, ParseError, associator,
                      commutator, format_element, is_alternative,
                      parse_element, swap_halves, tilde)
from .catalog import (SCHEMA_VERSION, CandidateFamily, CatalogEntry,
                      alternative_pure_element, enumerate_family,
                      random_element, random_special_couple, run_catalog,
                      write_csv, write_jsonl)
from .linalg import (FloatSpectrum, eigen_kernel, float_rank,
                     left_mult_matrix, matrix_of, nullspace, project_out,
                     rank, right_mult_matrix, rref_rows,
                     symmetric_eigen_float)
from .structure import (Decomposition, FloatZdReport, MiddleBand,
                        PreconditionError, VerificationError, ZdReport,
                        annihilator, couple_embedding, couple_failure,
                        couple_kernel_split, decompose,
                        float_zero_divisor_test, is_special_couple,
                        is_special_triple, kernel_report, octonion_embedding,
                        quaternion_embedding, report_to_dict,
                        special_zd_verdict, zero_divisor_test)

__version__ = "0.1.0"

__all__ = [
    "Element", "LevelError", "ParseError", "associator", "commutator",
    "format_element", "is_alternative", "parse_element", "swap_halves",
    "tilde",
    "FloatSpectrum", "eigen_kernel", "float_rank", "left_mult_matrix",
    "matrix_of", "nullspace", "project_out", "rank", "right_mult_matrix",
    "rref_rows", "symmetric_eigen_float",
    "Decomposition", "FloatZdReport", "MiddleBand", "PreconditionError",
    "VerificationError", "ZdReport", "annihilator", "couple_embedding",
    "couple_failure", "couple_kernel_split", "decompose",
    "float_zero_divisor_test", "is_special_couple", "is_special_triple",
    "kernel_report", "octonion_embedding", "quaternion_embedding",
    "report_to_dict", "special_zd_verdict", "zero_divisor_test",
    "SCHEMA_VERSION", "CandidateFamily", "CatalogEntry",
    "alternative_pure_element", "enumerate_family", "random_element",
    "random_special_couple", "run_catalog", "write_csv", "write_jsonl",
    "__version__",
]
