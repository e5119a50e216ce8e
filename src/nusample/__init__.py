"""Non-uniform sampling toolkit.

Balayage coefficient systems, Fourier frame bounds for separated sampling
sets against compact convex spectra, iterative reconstruction of bandlimited
signals from irregular samples, short-time Fourier / Gabor frame operators,
pseudo-differential frame inequalities, and the translate-covering criterion
that predicts when a sampling set frames a shrunk spectrum.
"""

from .geometry import (SpectralGrid, SpectrumSet, build_grid, covering_check,
                       enlarge)
from .sampling import (SamplingSet, generate_jittered_grid,
                       lower_beurling_density, symmetrize)
from .spectral import (BandlimitedSignal, TrigPolynomial, eval_trigpoly,
                       evaluate, random_pw_signal, random_trig_polynomial)
from .balayage import (BalayageConstant, BalayageInfeasibleError,
                       BalayageSolution, BalayageSolver, balayage_constant,
                       default_enlargement, fundamental_identity_residual,
                       ingham_window, lp_balayage_bound)
from .frames import (FrameReport, NotAFrameError, SampleVector, analysis,
                     covering_frame_experiment, frame_bounds,
                     interior_taper_subspace, reconstruct, three_dilate_check,
                     weighted_frame_check)
from .timefreq import (TimeFrequencyGrid, UniformGrid, WindowFunction,
                       feichtinger_norm, gabor_reconstruct, gaussian_window,
                       isometry_check, phase_lattice, pw_stft_frame_check, stft,
                       stft_fourier_closed_form, tf_identity_check)
from .psido import (KNSymbol, SpectralFactor, apply_ks, hs_norm, psido_frame_check,
                    symbol_term, validate_symbol_class)

__version__ = "0.1.0"
