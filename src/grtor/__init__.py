"""Bigraded Tor Hilbert series over associated graded rings, the spectral
sequence of a filtered tensor complex, and negative consecutive
cancellation certificates."""

__version__ = "0.1.0"

from .fields import QQ, CapExceededError, Field, GrtorError, field_from_name
from .orders import MonomialOrder
from .poly import GRADED, LOCAL, Polynomial, Ring, parse_ideal
from .series import (BigradedSeries, Cancellation, CancellationCertificate,
                     decide_cancellation, verify_certificate)
from .groebner import (IdealPresentation, ModulePresentation, colength,
                       groebner_basis, ideal_intersection, ideal_product,
                       ideal_sum, initial_ideal, module_groebner_basis,
                       module_normal_form, normal_form, standard_basis,
                       syzygies)
from .resolution import (GradedFreeResolution, betti_series,
                         closed_form_tor_series, minimal_resolution,
                         tor_series)
from .filtered import (FilteredComplex, FilteredResolution, filtered_tensor,
                       lift_resolution, resolve_local_cyclic, tor_local_low)
from .spectral import (SpectralPage, PageCancellation, cancellations_at_page,
                       page, random_filtered_complex, run_to_stability)

__all__ = [
    "QQ", "CapExceededError", "Field", "GrtorError", "field_from_name", "MonomialOrder",
    "GRADED", "LOCAL", "Polynomial", "Ring", "parse_ideal",
    "BigradedSeries", "Cancellation", "CancellationCertificate",
    "decide_cancellation", "verify_certificate",
    "IdealPresentation", "ModulePresentation", "colength",
    "groebner_basis", "ideal_intersection", "ideal_product", "ideal_sum",
    "initial_ideal", "module_groebner_basis", "module_normal_form",
    "normal_form", "standard_basis", "syzygies",
    "GradedFreeResolution", "betti_series", "closed_form_tor_series",
    "minimal_resolution", "tor_series",
    "FilteredComplex", "FilteredResolution", "filtered_tensor",
    "lift_resolution", "resolve_local_cyclic", "tor_local_low",
    "SpectralPage", "PageCancellation", "cancellations_at_page",
    "page", "random_filtered_complex", "run_to_stability",
]
