"""Time-variant masking for masked-language-model pre-training.

Provides masking-ratio decay schedules, POS-weighted masking driven by
smoothed per-category losses, and a small numpy MLM trainer that closes
the loss -> weight -> mask feedback loop.
"""

__version__ = "0.1.0"
