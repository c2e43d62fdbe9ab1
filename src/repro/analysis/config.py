"""Linter configuration, read from ``[tool.repro.analysis]`` in pyproject.

ruff, mypy, and ``repro.analysis`` all read from the same
``pyproject.toml`` so the repo has exactly one tool-config surface.
``tomllib`` ships with Python >= 3.11; on 3.10 (no tomllib, and the
container may not carry ``tomli``) we fall back to the built-in defaults,
which mirror the committed pyproject section.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

_DEFAULT_PATHS = ("src",)
_DEFAULT_EXCLUDE = ("*/lint_fixtures/*", "*.egg-info/*", "*/__pycache__/*")
# Wall-clock reads (REP102) are only an error inside the simulation
# paths: the cost model owns time there.  eval/ and cli timing is real
# wall-clock by design.
_DEFAULT_SIM_PATHS = ("repro/runtime", "repro/core")
# Declared lock hierarchy for REP404 (outermost first): the metrics
# registry's lock is the only one the runtime holds.  Mirrors the
# committed pyproject's ``lock-order``.
_DEFAULT_LOCK_ORDER = ("_lock",)


@dataclass(frozen=True)
class AnalysisConfig:
    """Effective linter configuration."""

    paths: Tuple[str, ...] = _DEFAULT_PATHS
    exclude: Tuple[str, ...] = _DEFAULT_EXCLUDE
    sim_paths: Tuple[str, ...] = _DEFAULT_SIM_PATHS
    select: Tuple[str, ...] = ()
    """Rule ids to run; empty means all registered rules."""

    lock_order: Tuple[str, ...] = _DEFAULT_LOCK_ORDER
    """Declared lock hierarchy, outermost first (REP404): nested
    acquisitions must follow this order, and no listed lock may be
    re-acquired while already held.  Lock names match on the last dotted
    segment of the ``with`` context expression."""

    root: Optional[Path] = field(default=None, compare=False)
    """Directory holding the pyproject this config came from (None when
    built from defaults)."""


def _find_pyproject(start: Path) -> Optional[Path]:
    for candidate in [start, *start.parents]:
        p = candidate / "pyproject.toml"
        if p.is_file():
            return p
    return None


def load_config(start: Optional[Path] = None) -> AnalysisConfig:
    """Load ``[tool.repro.analysis]`` from the nearest pyproject.toml at
    or above ``start`` (default: cwd); missing file/section/parser all
    degrade to the defaults."""
    start = (start or Path.cwd()).resolve()
    pyproject = _find_pyproject(start if start.is_dir() else start.parent)
    if pyproject is None:
        return AnalysisConfig()
    try:
        import tomllib
    except ImportError:  # Python 3.10 without tomli: defaults mirror pyproject
        return AnalysisConfig(root=pyproject.parent)
    try:
        with open(pyproject, "rb") as fh:
            data = tomllib.load(fh)
    except (OSError, tomllib.TOMLDecodeError):
        return AnalysisConfig(root=pyproject.parent)
    section = data.get("tool", {}).get("repro", {}).get("analysis", {})

    def _strings(key: str, default: Tuple[str, ...]) -> Tuple[str, ...]:
        value = section.get(key, section.get(key.replace("_", "-")))
        if not isinstance(value, list):
            return default
        return tuple(str(v) for v in value)

    return AnalysisConfig(
        paths=_strings("paths", _DEFAULT_PATHS),
        exclude=_strings("exclude", _DEFAULT_EXCLUDE),
        sim_paths=_strings("sim_paths", _DEFAULT_SIM_PATHS),
        select=_strings("select", ()),
        lock_order=_strings("lock_order", _DEFAULT_LOCK_ORDER),
        root=pyproject.parent,
    )


def in_sim_path(path: str, config: AnalysisConfig) -> bool:
    """True when ``path`` falls under one of the simulation trees."""
    posix = Path(path).as_posix()
    return any(fragment in posix for fragment in config.sim_paths)


def matches_exclude(path: str, config: AnalysisConfig) -> bool:
    from fnmatch import fnmatch

    posix = Path(path).as_posix()
    return any(fnmatch(posix, pat) for pat in config.exclude)


__all__: List[str] = ["AnalysisConfig", "load_config", "in_sim_path",
                      "matches_exclude"]
