"""The environment a result set was measured in, and a host-mismatch
warning for comparisons across result sets."""

from __future__ import annotations

import os
import platform
import socket
from typing import Dict, Iterable


def host_env() -> Dict[str, object]:
    import repro

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "host": socket.gethostname(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "repro": repro.__version__,
    }


def host_key(env: Dict[str, object]) -> str:
    return f"{env.get('host')} / {env.get('cpu')} / nproc={env.get('nproc')}"


def mixed_host_warning(envs: Iterable[Dict[str, object]]) -> str:
    """A warning line when the environments span more than one host,
    else the empty string."""
    hosts = sorted({host_key(env) for env in envs})
    if len(hosts) < 2:
        return ""
    return ("WARNING: these results come from different hosts, so "
            "timings are not comparable: " + "; ".join(hosts))
