"""Shared numeric tolerances and empirically calibrated constants.

The generic tolerances classify float isometries and compare boundary
points; float products are never renormalized, so no composition count is
kept here.  The lift search's beam width and key tolerances sit in
`combinat`, next to the loop that reads them.  Every number here that is
not a plain floating-point tolerance was measured on a calibration grid;
the comment next to it records how.  Keeping them in one place makes each
choice auditable.
"""

# --- generic tolerances -----------------------------------------------------

PARABOLIC_BAND = 1e-10    # |tr| within this of 2 is classified parabolic
SIGN_TRACE_CUTOFF = 1e-9  # |tr| above this: canonical sign forces tr >= 0
ENDPOINT_TIE_TOL = 1e-12  # boundary-point comparisons closer than this: error

# --- geometry defaults ------------------------------------------------------

DELTA_STAR_DEFAULT = 1.0  # hypercycle calibration length, in (0, 1]

# pinching gate for the untwisted-locus experiments; the underlying theory
# only promises a nonconstructive epsilon, so this is an experimental knob
EPS_UNTWISTED_DEFAULT = 1e-4

# log-length pinching threshold for noisy-path experiments: lengths
# exp(-12) ~ 6.1e-6 passed every property suite on the calibration runs
LOG_PINCH_DEFAULT = -12.0

LIFT_SEARCH_DEPTH_DEFAULT = 12   # word-length ball for lift searches
NOISE_BREAKPOINTS_DEFAULT = 16   # piecewise-linear noise segments

# --- empirically calibrated constants ---------------------------------------
# The inequalities these feed are existence statements; the artifact needs
# concrete numbers.  Each was measured once on the stated grid and then
# frozen with margin.

# |2*excursion - non-crossing residue|: measured max 2 log 2 ~ 1.386 on
# a in {1e-1/2..1e-6}, t in {1..1e8}; frozen with margin.
C_EXCURSION_RESIDUE = 3.0

# |excursion - log t| in the window 1 <= t <= 4 delta_H / a + 20:
# measured max 1.10 on the same a-grid; frozen with margin.
C_EXCURSION_LOG = 2.0

# |residue - 2 log t| for the non-crossing spiral in the mid-range
# regime: measured max 4.61 on a in {1e-2, 1e-3}, t in {10..1e3}.
C_RESIDUE_LOG = 5.0

# Residue-ratio band: pass threshold for ratio_residue_check sweeps at
# t above T0_RESIDUE and |t1 - t2| <= TAU_RESIDUE.
C_RESIDUE_RATIO = 1.5
T0_RESIDUE = 100.0
TAU_RESIDUE = 10.0

# Basic rotation outside the unit horocycle of a cusp: sharp bound 2,
# plus the half-integer ambiguity of synthetic counting.
CUSP_ROTATION_BOUND = 2.5

# Synthetic rotation (order disagreements) vs basic rotation (core
# projection): agree within 1/2 plus this calibration slack.
ROTATION_COMPARABILITY_SLACK = 1.0

# Non-rotating length lower bound L >= B * i(gamma, P) at pinching 1e-4.
B_NONROT = 5.0
