"""UMDA/UMDA* simulator on OneMax with exact probabilistic oracles.

Modules
-------
rng           deterministic PCG32 generation (scalar and vectorized blocks), stream ids
bitmodel      frequency vectors, sampling to a read-only bit matrix, one-counts
core          sample_and_select -> bits, fitness, one-counts -> update_frequencies; run driver
telemetry     per-generation sampling variance / potential / border hits
levels        ranking by all-but-one bits: cut level, candidates, classes
oracles       exact Poisson-binomial and capped-binomial computations
experiments   batch driver, sweeps, scaling studies, phase probes, every output layout,
              the text parser of every setting (SETTINGS)
verification  oracle-backed check suite behind the `verify` CLI subcommand

The package root re-exports nothing: import each name from its module,
e.g. ``from umda.core import UmdaConfig, run``.
"""
