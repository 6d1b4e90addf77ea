"""Exception types shared across the toolkit."""


class NnwmError(Exception):
    """Base class for all toolkit errors."""


class ManifestError(NnwmError):
    """Architecture manifest is malformed or violates the schema."""


class BlobFormatError(NnwmError):
    """Weight blob has a bad magic string or an unsupported version."""


class BlobSizeError(NnwmError):
    """Weight blob length does not match the manifest-declared tensors."""


class ShapeConsistencyError(NnwmError):
    """A model graph violates a structural invariant."""


class CriterionError(NnwmError):
    """The requested importance criterion does not apply to this layer."""


class CodecError(NnwmError):
    """Watermark codec argument out of its valid range."""


class CapacityError(NnwmError):
    """Payload needs more carrier layers than the model offers."""

    def __init__(self, required: int, available: int, detail: str = ""):
        self.required = required
        self.available = available
        msg = f"capacity exceeded: {required} segment(s) required, {available} eligible layer(s) available"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class PlanError(NnwmError):
    """Pruning plan is invalid against the target model."""


class ArchitectureMismatchError(NnwmError):
    """Original and suspect models have differing conv-layer structure."""


class TrainConfigError(NnwmError, ValueError):
    """Training hyperparameter out of its valid range, or training diverged."""


class AttackConfigError(NnwmError, ValueError):
    """Attack parameter out of its valid range."""
