"""postdedup: batch duplicate detection for multilingual text corpora.

Pipeline: normalize -> (translate) -> embed -> approximate k-NN candidate
search -> threshold and expert rules -> classify -> evaluate. All model
and service dependencies sit behind pluggable backends with deterministic
offline defaults, so the whole pipeline runs and tests without network
access.

Import names from their submodules (`postdedup.pipeline.run_pipeline`);
importing the package itself loads none of them.
"""

__version__ = "0.1.0"
