"""Pulsar-search filter-bank pipeline: convolution strategies, harmonic
summing with candidate detection, plane-preparation transforms, and an
analytic pipeline throughput model."""

from .core import (ConfigError, FdasConfig, FdasError, FilterBank, Fop,
                   FormatError, InputError, generate_input, load_config,
                   load_fop, save_config, save_fop, synthetic_bank)
from .convolution import (ConvRawOutput, NaiveFd, NaiveTd, OlaTd, OlsFd,
                          convolve_bank, fir_naive_td, fir_ols_fd,
                          power_spectrum)
from .harmonic import (CandidateList, MultipleHpN, MultipleHpR,
                       NaiveMultipleHp, SingleHp, ThresholdTable, harmonic_sum,
                       harmonic_sum_naive, stretch_lookup)
from .pipeline import (DeviceModel, PipelinePlan, StageTiming,
                       choose_buffering, contended_period, ideal_period,
                       multi_device_period, plan_pipeline, sweep,
                       total_latency)
from .prep import RFop, discard, fop_from, prepare, reorder, transpose

__version__ = "0.1.0"
