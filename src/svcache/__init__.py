"""Energy-efficient layered-video caching in two-tier cellular networks.

Each name is imported from its module; the package root holds only
__version__.  config: scenario dataclasses and loader; popularity: Zipf
profiles; analytic: stochastic-geometry success probabilities and ergodic
rates; montecarlo: the independent Monte-Carlo oracle; power, objective:
power and energy efficiency of fractional and random caching; optimizer:
the gradient-projection EE maximizer; baselines: the MPCP, UCP and ICP
placements; cli: the svcache batch runner.
"""

__version__ = "0.1.0"
