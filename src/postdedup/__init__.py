"""postdedup: batch duplicate detection for multilingual text corpora.

Pipeline: normalize -> exact groups (postings of one lowercased cleaned
text) -> translate one representative per group (optional) -> embed ->
k-NN candidate search (exact with the default flat index, approximate
with IVF) -> threshold and expert rules -> classify -> evaluate. All model
and service dependencies sit behind pluggable backends with deterministic
offline defaults, so the whole pipeline runs and tests without network
access.

Import names from their submodules (`postdedup.pipeline.run_pipeline`);
importing the package itself loads none of them.
"""

__version__ = "0.1.0"
