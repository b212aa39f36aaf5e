"""Energy-efficient layered-video caching in two-tier cellular networks.

Closed-form stochastic-geometry analytics, an independent Monte-Carlo
oracle, power and sum-rate models for fractional and random caching,
and a gradient-projection energy-efficiency maximizer with three
baseline placement policies.
"""

from svcache.config import (
    NetworkConfig,
    ContentConfig,
    PowerCoefficients,
    CachingPolicy,
    load_scenario,
    dbm_to_watts,
)
from svcache.popularity import PopularityProfile, zipf, build_profile
from svcache.analytic import (
    g_alpha,
    p_success_mbs,
    p_success_sbs_bl,
    p_success_sbs_el,
    ergodic_rate_mbs,
    ergodic_rate_sbs_bl,
    ergodic_rate_sbs_el,
    build_rate_table,
    RateTable,
)
from svcache.power import PowerBreakdown, power_scheme1, power_scheme2
from svcache.objective import (
    ObjectiveContext,
    ee_value,
    ee_gradient,
)
from svcache.optimizer import (
    SolverSettings,
    SolverTrace,
    project_capped_simplex,
    optimize,
    make_initial_policy,
)
from svcache.baselines import mpcp_policy, ucp_policy, icp_policy, icp_expected_ee

__version__ = "0.1.0"
