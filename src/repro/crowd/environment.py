"""Automatic environment parsing (system S13, paper Sec. III/IV-A).

GPTuneCrowd records the runtime environment of every sample "without
manual input".  Three parsers cover the paper's supported sources:

* :func:`parse_spack_spec` — Spack install specs like
  ``superlu-dist@7.2.0%gcc@9.3.0+openmp arch=cray-cnl7-haswell``,
* :func:`parse_slurm_environment` — the ``SLURM_*`` variables of a job
  (produced in this repository by :class:`repro.hpc.scheduler.SlurmSim`),
* :func:`parse_ck_meta` — CK-style ``meta.json`` dictionaries.

Each parser emits the normalized machine/software configuration blocks
of the meta description; :mod:`repro.crowd.configmatch` then matches the
free-form names against the database's well-known tags.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from typing import Any

__all__ = [
    "parse_spack_spec",
    "parse_slurm_environment",
    "parse_ck_meta",
    "EnvironmentParseError",
]


class EnvironmentParseError(ValueError):
    """Raised when an environment description cannot be parsed."""


_SPEC_RE = re.compile(
    r"""^\s*
    (?P<name>[a-zA-Z0-9][\w.-]*)            # package name
    (?:@(?P<version>[\w.]+))?               # @version
    (?:%(?P<compiler>[a-zA-Z][\w-]*)        # %compiler
       (?:@(?P<cversion>[\w.]+))?)?         # compiler @version
    (?P<variants>(?:[+~][\w-]+)*)           # +variant ~variant
    (?P<rest>.*)$""",
    re.VERBOSE,
)


def parse_version(text: str) -> list[int]:
    """``"7.2.0"`` -> ``[7, 2, 0]`` (non-numeric fragments dropped)."""
    parts = []
    for frag in str(text).split("."):
        m = re.match(r"\d+", frag)
        if m:
            parts.append(int(m.group()))
    if not parts:
        raise EnvironmentParseError(f"no numeric version in {text!r}")
    return parts


def parse_spack_spec(spec: str) -> dict[str, Any]:
    """Parse a Spack spec string into a software-configuration block."""
    m = _SPEC_RE.match(spec)
    if m is None or not m.group("name"):
        raise EnvironmentParseError(f"cannot parse spack spec {spec!r}")
    out: dict[str, Any] = {"name": m.group("name"), "source": "spack"}
    if m.group("version"):
        out["version_split"] = parse_version(m.group("version"))
    if m.group("compiler"):
        compiler: dict[str, Any] = {"name": m.group("compiler")}
        if m.group("cversion"):
            compiler["version_split"] = parse_version(m.group("cversion"))
        out["compiler"] = compiler
    variants = m.group("variants") or ""
    enabled = re.findall(r"\+([\w-]+)", variants)
    disabled = re.findall(r"~([\w-]+)", variants)
    if enabled or disabled:
        out["variants"] = {v: True for v in enabled} | {v: False for v in disabled}
    arch = re.search(r"arch=([\w.-]+)", m.group("rest") or "")
    if arch:
        out["arch"] = arch.group(1)
    return out


def parse_slurm_environment(env: Mapping[str, str]) -> dict[str, Any]:
    """Extract the machine-configuration block from ``SLURM_*`` variables."""
    if not any(k.startswith("SLURM_") for k in env):
        raise EnvironmentParseError("no SLURM_* variables present")
    out: dict[str, Any] = {"source": "slurm"}
    nodes = env.get("SLURM_JOB_NUM_NODES") or env.get("SLURM_NNODES")
    if nodes is not None:
        out["nodes"] = int(nodes)
    if "SLURM_NTASKS" in env:
        out["ntasks"] = int(env["SLURM_NTASKS"])
    if "SLURM_CPUS_PER_TASK" in env:
        out["cpus_per_task"] = int(env["SLURM_CPUS_PER_TASK"])
    if "SLURM_JOB_PARTITION" in env:
        out["partition"] = env["SLURM_JOB_PARTITION"]
    if "SLURM_JOB_NODELIST" in env:
        out["nodelist"] = env["SLURM_JOB_NODELIST"]
    if "SLURM_JOB_ID" in env:
        out["job_id"] = int(env["SLURM_JOB_ID"])
    return out


def parse_ck_meta(meta: Mapping[str, Any]) -> dict[str, Any]:
    """Parse a Collective-Knowledge-style ``meta.json`` dictionary."""
    if not isinstance(meta, Mapping):
        raise EnvironmentParseError("CK meta must be a mapping")
    name = meta.get("data_name") or meta.get("soft_name") or meta.get("package_name")
    if not name:
        raise EnvironmentParseError("CK meta has no recognizable package name")
    out: dict[str, Any] = {"name": str(name), "source": "ck"}
    version = meta.get("version") or meta.get("customize", {}).get("version")
    if version:
        out["version_split"] = parse_version(str(version))
    tags = meta.get("tags")
    if tags:
        out["tags"] = [str(t) for t in tags]
    return out
