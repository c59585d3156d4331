"""Weighted random generation of context-free languages, with exact and
asymptotic analytics for the redundancy of sampled sets: first collision,
full collection, expected distinct words, and coverage."""

from .grammar import (AmbiguityReport, GrammarError, GrammarSyntaxError,
                      NormalizedGrammar, Rule, WeightedGrammar,
                      ambiguity_probe, enumerate_words, normalize, parse_grammar)
from .counting import (ClassCapExceeded, CountTable, EmptyLanguageError,
                       WeightClass, WeightSpectrum, build_counts,
                       extreme_weights, moment,
                       weight_spectra, weight_spectrum)
from .sampler import (SamplerState, branch_distribution, sample_word,
                      word_probability, word_weight)
from .urns import (AnalyticsReport, CouponBounds, Expectation, Occupancy,
                   ReportEntry, SimResult, UrnClass, UrnModel,
                   birthday_asymptotic, birthday_exact, coupon_bounds,
                   coupon_uniform_exact,
                   coverage_first_order, expected_coverage, expected_distinct,
                   expected_occupied_weight, from_spectrum, from_weights,
                   occupancy, simulate, standard_report, uniform_urns,
                   xi_estimate)
from .asymptotics import (CollectionEnvelope, CollisionEstimates,
                          ConditionReport, GammaEstimate, SingularityEstimate,
                          check_conditions, collection_envelope,
                          collision_envelope, collision_estimates,
                          estimate_singularity, growth_gamma)
from .rna import (RnaModel, class_counts_by_pairs, coverage_rows,
                  gamma_from_rho, pair_spectrum, pair_weight, rna_delta,
                  rna_grammar, rna_report, rna_rho, rna_series,
                  structure_counts)
from .numerics import DEFAULT_SEED

__version__ = "0.1.0"
