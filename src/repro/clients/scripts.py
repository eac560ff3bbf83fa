"""ftsh script templates for the paper's three scenarios.

These are kept as close to the paper's listings as the simulator allows —
``condor_submit submit.job``, ``cut -f2 /proc/sys/fs/file-nr``, ``wget
http://$host/data`` all run verbatim against the registered simulated
commands.  Only time windows are parameterized so harnesses can scale
runs up or down.

The *fixed* discipline uses the same script as Aloha with a zero-delay
backoff policy (see :data:`repro.clients.base.FIXED`) — structurally the
client still loops on failure, it just never waits, exactly as described
in §5.

The Aloha variants acquire their shared resource without a carrier-sense
probe *on purpose* — that is the behaviour the figures compare against —
so those lines carry ``# lint: disable=FTL010`` markers to keep
``repro.lint`` (which exists to reject that pattern in real scripts)
quiet about the deliberate baseline.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .base import Discipline


def format_window(seconds: float) -> str:
    """Render a duration for a ``try for`` clause."""
    if seconds == int(seconds):
        return f"{int(seconds)} seconds"
    return f"{seconds:g} seconds"


# ---------------------------------------------------------------------------
# Scenario 1: job submission (Figures 1-3)
# ---------------------------------------------------------------------------

def submit_script(
    discipline: Discipline,
    window: float = 300.0,
    carrier_threshold: int = 1000,
) -> str:
    """One submission work-unit, paper §5 scenario 1.

    Aloha (paper)::

        try for 5 minutes
            condor_submit submit.job
        end

    Ethernet (paper)::

        try for 5 minutes
            cut -f2 /proc/sys/fs/file-nr -> n
            if ${n} .lt. 1000
                failure
            else
                condor_submit submit.job
            end
        end
    """
    limit = format_window(window)
    if discipline.carrier_sense:
        return f"""
try for {limit}
    cut -f2 /proc/sys/fs/file-nr -> n
    if ${{n}} .lt. {carrier_threshold}
        failure
    else
        condor_submit submit.job
    end
end
"""
    return f"""
try for {limit}
    condor_submit submit.job  # lint: disable=FTL010
end
"""


# ---------------------------------------------------------------------------
# Scenario 2: shared output buffer (Figures 4-5)
# ---------------------------------------------------------------------------

def _size_word(size_mb: Optional[float]) -> str:
    """The ``produce_output`` argument: a literal size, or — for
    ``None`` — the ``${size_mb}`` variable, so a producer loop parses one
    script and passes each cycle's size to ``spawn`` (format it with
    ``f"{size:.6f}"``, as here, and the command sees the same argv)."""
    return "${size_mb}" if size_mb is None else f"{size_mb:.6f}"


def producer_script(
    discipline: Discipline,
    size_mb: Optional[float],
    window: float = 300.0,
) -> str:
    """One producer cycle: produce an output file, then store it.

    The Ethernet variant estimates usable space first (incomplete files
    assumed to grow to the average completed size) and defers when the
    estimate is non-positive.
    """
    limit = format_window(window)
    size = _size_word(size_mb)
    if discipline.carrier_sense:
        return f"""
produce_output {size}
try for {limit}
    df_estimate -> free
    if ${{free}} .le. 0
        failure
    end
    store_output
end
"""
    return f"""
produce_output {size}
try for {limit}
    store_output  # lint: disable=FTL010
end
"""


def producer_script_reserved(size_mb: Optional[float],
                             window: float = 300.0) -> str:
    """The reservation alternative the paper's §5 discussion weighs:
    allocate space through a NeST/SRB/SRM-style server before writing.

    Collisions become impossible; the contended resource moves to the
    allocation RPC itself.
    """
    limit = format_window(window)
    return f"""
produce_output {_size_word(size_mb)}
try for {limit}
    reserve_output
    store_reserved
end
"""


# ---------------------------------------------------------------------------
# Scenario 3: replicated read with black holes (Figures 6-7)
# ---------------------------------------------------------------------------

def reader_script(
    discipline: Discipline,
    hosts: Sequence[str],
    window: float = 900.0,
    probe_window: float = 5.0,
    data_window: float = 60.0,
) -> str:
    """One file fetch across replicated servers.

    Aloha (paper)::

        try for 900 seconds
            forany host in xxx yyy zzz
                try for 60 seconds
                    wget http://$host/data
                end
            end
        end

    Ethernet (paper) adds the one-byte flag probe under a 5 s limit.
    ``hosts`` should be pre-shuffled by the caller to model the paper's
    "server chosen at random".
    """
    host_list = " ".join(hosts)
    limit = format_window(window)
    data_limit = format_window(data_window)
    if discipline.carrier_sense:
        probe_limit = format_window(probe_window)
        return f"""
try for {limit}
    forany host in {host_list}
        try for {probe_limit}
            wget http://${{host}}/flag
        end
        try for {data_limit}
            wget http://${{host}}/data
        end
    end
end
"""
    return f"""
try for {limit}
    forany host in {host_list}
        try for {data_limit}
            wget http://${{host}}/data  # lint: disable=FTL010
        end
    end
end
"""
