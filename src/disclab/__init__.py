"""disclab: a laboratory for average-case discrepancy minimization and the
symmetric binary perceptron.

Seeded random instances and correlated ensembles, exact Gray-code
minimization, online signing algorithms, exhaustive solution-landscape
searches, and exact evaluation of the first-moment exponents and bounds
governing when forbidden solution structures vanish.
"""

from .discrepancy import (DiscrepancyResult, disc_value, enumerate_below,
                          enumerate_solutions, exact_discrepancy, parse_sign_string,
                          sbp_membership, sign_string)
from .errors import (CapacityError, ContractViolationError, InstanceFormatError,
                     ParameterError, UnsupportedDisorderError)
from .instances import (Instance, generate, generate_batch, interpolate,
                        load_instance, ogp_ensemble, resample_suffix, save_instance,
                        stability_trial, suffix_ensemble)
from .landscape import (Histogram, OgpWindow, StabilityReport, TupleCertificate,
                        default_angle_grid, overlap_histogram, search_ogp_tuples,
                        search_xi_disc, search_xi_sbp, stability_probe,
                        verify_certificate)
from .online import (ALGORITHMS, GreedyOnline, OnlineResult, PotentialOnline,
                     RandomSigningOnline, make_algorithm, run_online, run_online_batch)
from .theory import (CovarianceReport, CovarianceSpec, ExponentReport, McEstimate,
                     OgpParams, StableConstants, TupleCountEstimate, alpha_c,
                     berry_esseen_bound, binary_entropy, box_probability_quadrature,
                     build_covariance, covariance_analysis,
                     equicorrelated_box_probability, expected_tuple_count_general,
                     expected_xi_count, find_ogp_params, gaussian_box_bound,
                     mc_box_probability, prob_abs_z_le, psi_disc, psi_sbp,
                     stable_constants, upsilon)

__version__ = "0.1.0"
