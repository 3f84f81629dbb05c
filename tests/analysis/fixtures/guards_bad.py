"""Bad: optional hooks called without a None guard."""


class Engine:
    def __init__(self) -> None:
        self.faults = None
        self.device = None

    def alias_unguarded(self, op: int) -> None:
        faults = self.device.faults
        faults.on_command("program_page", op)

    def injector_unguarded(self, op: int) -> None:
        self.faults.on_command("program_page", op)
