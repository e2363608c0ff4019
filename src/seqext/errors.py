"""Exception types shared across the package."""


class CapExceededError(RuntimeError):
    """A search or enumeration exceeded its configured size cap. `switch`,
    when given, is the library keyword that lifts the cap; `text(switch)`
    names another (the CLI names its flag)."""

    def __init__(self, reason: str, switch: str = ""):
        super().__init__(reason)
        self.reason = reason
        self.switch = switch

    def text(self, switch: str = "") -> str:
        if not self.switch:
            return self.reason
        return f"{self.reason}; pass {switch or self.switch} to force the search"

    def __str__(self) -> str:
        return self.text()


class InfeasibleError(ValueError):
    """Requested construction parameters admit no valid witness."""
