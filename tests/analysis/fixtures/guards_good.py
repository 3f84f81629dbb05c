"""Good: every optional-hook call sits under an `is not None` guard."""


class Engine:
    def __init__(self) -> None:
        self.faults = None
        self.device = None

    def alias_guarded(self, op: int) -> None:
        faults = self.device.faults
        if faults is not None:
            faults.on_command("program_page", op)

    def short_circuit(self, op: int) -> None:
        self.faults is not None and self.faults.on_command("program_page", op)

    def injector_guarded(self, op: int) -> None:
        if self.faults is not None:
            self.faults.on_command("program_page", op)
