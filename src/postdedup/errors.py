"""Exception hierarchy for the dedup pipeline.

Three top-level families map onto CLI exit codes: configuration problems
(exit 2), data/artifact problems (exit 3), backend/service problems (exit 4).
"""

from __future__ import annotations


class DedupError(Exception):
    """Base class for all pipeline errors."""


class ConfigError(DedupError):
    """Invalid configuration, flags, or ruleset."""


class DataError(DedupError):
    """Invalid or missing input data or artifacts."""


class MalformedRecord(DataError):
    def __init__(self, path, line_no: int, detail: str) -> None:
        self.line_no = line_no
        super().__init__(f"malformed record at {path}:{line_no}: {detail}")


class DuplicateId(DataError):
    def __init__(self, posting_id: str, where: str = "") -> None:
        self.posting_id = posting_id
        super().__init__(f"duplicate posting id {posting_id!r}" + (f" {where}" if where else ""))


class MissingRequiredField(MalformedRecord):
    def __init__(self, field: str, path, line_no: int) -> None:
        self.field = field
        super().__init__(path, line_no, f"missing required field {field!r}")


class DimensionMismatch(DataError):
    def __init__(self, expected: int, got: int) -> None:
        self.expected = expected
        self.got = got
        super().__init__(f"expected dimension {expected}, got {got}")


class ZeroVector(DataError):
    """A zero (empty-text) vector reached an index; these must be filtered upstream."""


class CorruptIndex(DataError):
    """Index file failed magic/version/length/checksum validation."""


class NoMatchingRule(DataError):
    """No expert rule matched a pair; the terminal default rule is missing."""


class BackendError(DedupError):
    """Base class for translation/embedding service failures."""


class BackendUnavailable(BackendError):
    """Backend could not be reached or kept failing after retries."""


class RateLimited(BackendError):
    def __init__(self, retry_after: float | None = None) -> None:
        self.retry_after = retry_after
        super().__init__(
            "backend rate limited" + (f" (retry after {retry_after}s)" if retry_after else "")
        )
