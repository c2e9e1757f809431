"""Workbench for finite Krasner (m,n)-hyperrings."""

from .core import (ArityError, HyperringTable, ValidationReport, Violation,
                   f_extend, g_power, g_product,
                   validate_canonical_hypergroup, validate_krasner)
from .ideals import (GeneratedIdeal, Hyperideal, IdealProduct, IdealSetPair,
                     ImproperIdealError, enumerate_hyperideals, generated_by,
                     hyperideal_product, ideal_closure, ideal_from_labels,
                     is_hyperideal, make_hyperideal, proper_hyperideals,
                     quotient_sets, radical_by_primes, radical_by_powers)
from .classify import (ClassificationRecord, InternalInconsistencyError,
                       classify, is_kn_absorbing, is_kn_absorbing_primary,
                       is_kn_absorbing_q_primary, is_prime, is_primary,
                       is_q_primary, is_sq_primary, is_weakly_primary,
                       is_weakly_prime, is_wsq_primary)
from .construct import (Homomorphism, IllDefinedQuotientError,
                        KernelNotContainedError, NotSurjectiveError,
                        direct_product, image_ideal, is_homomorphism,
                        is_subhyperring, preimage_ideal, quotient,
                        subhyperring_table)
from .documents import (DocumentError, DocumentValidationError, load_path,
                        parse_document, serialize_document)
from .corpus import builtin_corpus
from .theorems import (KNOWN_IMPLICATIONS, THEOREM_IDS, ImplicationMatrix,
                       StructureRejectedError, TheoremReport,
                       implication_matrix, run_all, run_theorem, summary_line)
