"""Uniform pass/fail reports: a deterministic, machine-readable list of
check items plus free-form notes."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class Report:
    title: str
    items: list[CheckItem] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def add(self, name: str, passed: bool, detail: str = ""):
        self.items.append(CheckItem(name, passed, detail))

    def failures(self) -> list[CheckItem]:
        return [item for item in self.items if not item.passed]

    def render(self) -> str:
        lines = [f"== {self.title}: {'PASS' if self.passed else 'FAIL'} =="]
        for note in self.notes:
            lines.append(f"   note: {note}")
        for item in self.items:
            mark = "ok " if item.passed else "FAIL"
            line = f" [{mark}] {item.name}"
            if item.detail:
                line += f" -- {item.detail}"
            lines.append(line)
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "notes": list(self.notes),
            "items": [
                {"name": i.name, "passed": i.passed, "detail": i.detail}
                for i in self.items
            ],
        }
