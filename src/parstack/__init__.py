"""Exact local models of parabolic bundles, root-stack modules, and the
direct-image / pullback functors on both sides, with randomized
differential verification that the two sides agree.
"""

__version__ = "0.1.0"

from .errors import (AmbientMismatch, InadmissibleProfile, InadmissibleWeight,
                     InvalidChain, InvalidGrading, NotAPairing, ParseError,
                     ParstackError, ProfileMismatch, ShapeMismatch,
                     SingularBasis, ValidationError, ValueLineMismatch)
from .fields import QQ, PrimeField, RationalField, field_from_name
from .localring import LocalElement
from .lattice import Lattice, apply_matrix, direct_sum
from .parabolic import (ParabolicBundle, ParabolicPoint, is_point_morphism,
                        parabolic_degree, split_into_lines)
from .rootstack import (GradedModule, from_parabolic, is_graded_morphism,
                        to_parabolic)
from .functors import (Branch, CoverProfile, make_profile, pullback_graded,
                       pullback_matrix, pullback_parabolic,
                       pullback_parabolic_line, pushforward_graded,
                       pushforward_matrix, pushforward_parabolic,
                       restrict_scalars)
from .pairing import (ANTISYMMETRIC, SYMMETRIC, ParabolicPairing,
                      check_pairing, pullback_pairing, pushforward_pairing)
from .harness import (TrialConfig, TrialReport, gen_parabolic_point,
                      verify_corollaries, verify_direct_image, verify_pullback)
