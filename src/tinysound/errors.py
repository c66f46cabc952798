"""Exception types shared across the package."""


class TinySoundError(Exception):
    """Base class for all tinysound errors."""


class DecodeError(TinySoundError):
    """Malformed audio container. Carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class UnsupportedFormatError(DecodeError):
    """Well-formed container but a sample format we do not decode."""


class ManifestError(TinySoundError):
    """Dataset manifest missing, unreadable, or inconsistent."""


class ConfigError(TinySoundError):
    """Invalid configuration value or combination."""


class CheckpointError(TinySoundError):
    """Checkpoint file unreadable, truncated, or version-incompatible."""


class DivergenceError(TinySoundError):
    """Training loss or a gradient became NaN or infinite."""
