"""The end-to-end Figure-2 timing pipeline.

Reproduces the paper's delay budget for one 64×64×16 image:

* scan → RT-server: ~1.5 s;
* data transfers + control messages RT-server ↔ T3E ↔ RT-client: 1.1 s
  (dominated by the 1999 control-path software, not wire time — the raw
  image is only 128 KByte);
* RT-client receipt → on screen: 0.6 s;
* T3E processing: Table 1 (1.01 s at 256 PEs) ⇒ total < 5 s.

And the throughput analysis: "the throughput of the application ... is
the sum of the delays in the RT-client and the T3E, which is 2.7 seconds
in the above example" because the published FIRE does **not** pipeline —
"a new image is requested from the RT-server only after the processing
and displaying of the previous one is completed."  ``pipelined=True``
implements the improvement the paper points out it is missing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.machines.t3e_model import REF_VOXELS, T3EPerformanceModel, default_model

#: Bytes per voxel of the raw image (16-bit) and of the result maps.
RAW_BYTES_PER_VOXEL = 2
RESULT_BYTES_PER_VOXEL = 4  # float32 correlation overlay


@dataclass(frozen=True)
class PipelineConfig:
    """Parameters of one FIRE session on the metacomputer."""

    pes: int = 256  #: T3E processors
    voxels: int = REF_VOXELS  #: image size (64·64·16 by default)
    n_images: int = 20
    repetition_time: float = 3.0  #: scanner TR (Jülich typical: 3 s)
    delivery_delay: float = 1.5  #: scan → RT-server
    display_time: float = 0.6  #: data at client → on screen
    comm_time: float = 1.1  #: transfers + control messages (paper total)
    pipelined: bool = False
    modules: tuple[str, ...] = ("filter", "motion", "rvo")
    #: effective application-level transfer rate for the data legs; used
    #: only to split comm_time into up/down legs for the pipelined mode.
    transfer_rate: float = 100e6

    def __post_init__(self) -> None:
        if self.pes < 1 or self.voxels < 1 or self.n_images < 1:
            raise ValueError("pes, voxels and n_images must be positive")
        if self.repetition_time <= 0:
            raise ValueError("repetition time must be positive")

    @property
    def raw_bytes(self) -> int:
        """Raw image size on the wire."""
        return self.voxels * RAW_BYTES_PER_VOXEL

    @property
    def result_bytes(self) -> int:
        """Result overlay size on the wire."""
        return self.voxels * RESULT_BYTES_PER_VOXEL

    def comm_legs(self) -> tuple[float, float]:
        """(server→T3E, T3E→client) comm times summing to ``comm_time``.

        Each leg carries its data transfer plus half the control-message
        budget.
        """
        up_wire = self.raw_bytes * 8 / self.transfer_rate
        down_wire = self.result_bytes * 8 / self.transfer_rate
        control = max(self.comm_time - up_wire - down_wire, 0.0)
        return up_wire + control / 2, down_wire + control / 2


@dataclass
class ImageRecord:
    """Timing of one image through the pipeline."""

    index: int
    scan_time: float
    server_time: float
    t3e_start: float
    t3e_end: float
    display_time: float

    @property
    def total_delay(self) -> float:
        """Scan completion → on screen."""
        return self.display_time - self.scan_time


@dataclass
class PipelineReport:
    """Aggregate results of a pipeline run."""

    config: PipelineConfig
    records: list[ImageRecord]
    t3e_time: float  #: per-image processing time used

    @property
    def mean_total_delay(self) -> float:
        """Average scan→display delay."""
        return float(np.mean([r.total_delay for r in self.records]))

    @property
    def max_total_delay(self) -> float:
        return float(np.max([r.total_delay for r in self.records]))

    @property
    def throughput_period(self) -> float:
        """Mean interval between displayed images (steady state)."""
        if len(self.records) < 2:
            return float("nan")
        times = [r.display_time for r in self.records]
        # Skip the first interval (pipeline fill).
        diffs = np.diff(times)
        return float(np.mean(diffs[1:])) if len(diffs) > 1 else float(diffs[0])

    @property
    def processing_period(self) -> float:
        """Client+T3E busy time per image — the paper's 2.7 s figure.

        This is the sequential-mode capacity: the scanner may not run
        faster than this without images queueing up.
        """
        cfg = self.config
        return cfg.comm_time + self.t3e_time + cfg.display_time

    @property
    def safe_repetition_time(self) -> float:
        """Smallest scanner TR the pipeline sustains without backlog."""
        cfg = self.config
        if not cfg.pipelined:
            return self.processing_period
        up, down = cfg.comm_legs()
        return max(up, self.t3e_time, down, cfg.display_time)

    def breakdown(self) -> dict[str, float]:
        """The Figure-2 delay budget."""
        cfg = self.config
        return {
            "scan_to_server": cfg.delivery_delay,
            "transfers_and_control": cfg.comm_time,
            "t3e_processing": self.t3e_time,
            "display": cfg.display_time,
            "total": cfg.delivery_delay
            + cfg.comm_time
            + self.t3e_time
            + cfg.display_time,
        }


class FirePipeline:
    """Timing model of the scanner→T3E→display loop.

    The loop talks to nothing else, so it needs no event queue: each
    stage is a FIFO server, and an image starts at a stage when both the
    image and the stage are ready (``max(arrival, free)``) and leaves
    ``busy`` seconds later.  A wait is added to the clock as
    ``now + (target - now)``, the sum a scheduled wake-up would compute.
    """

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        model: Optional[T3EPerformanceModel] = None,
    ):
        self.config = config or PipelineConfig()
        self.model = model or default_model()
        self.t3e_time = self.model.total_time(
            self.config.pes, self.config.voxels, self.config.modules
        )
        #: telemetry hook (repro.telemetry.probes.instrument_pipeline)
        self.probe: Optional[object] = None

    def run(self) -> PipelineReport:
        """Simulate the session and return the timing report."""
        report = (
            self._run_pipelined() if self.config.pipelined else self._run_sequential()
        )
        if self.probe is not None:
            for record in report.records:
                self.probe.observe_record(record)
        return report

    # -- sequential: the published FIRE behaviour -------------------------
    def _run_sequential(self) -> PipelineReport:
        cfg = self.config
        records: list[ImageRecord] = []
        up, down = cfg.comm_legs()
        now = 0.0
        last_scan = 0
        for k in range(cfg.n_images):
            # Take the most recent completed scan (the free-running
            # scanner buffers; the client may skip scans if it lags),
            # but never re-process one already displayed.
            scan_index = max(
                int(np.floor(now / cfg.repetition_time)), 1, last_scan + 1
            )
            last_scan = scan_index
            scan_time = scan_index * cfg.repetition_time
            server_time = scan_time + cfg.delivery_delay
            if server_time > now:
                now += server_time - now
            now += up
            t3e_start = now
            now += self.t3e_time
            t3e_end = now
            now += down
            now += cfg.display_time
            records.append(
                ImageRecord(
                    index=k,
                    scan_time=scan_time,
                    server_time=server_time,
                    t3e_start=t3e_start,
                    t3e_end=t3e_end,
                    display_time=now,
                )
            )
        return PipelineReport(cfg, records, self.t3e_time)

    # -- pipelined: the improvement the paper points out --------------------
    def _run_pipelined(self) -> PipelineReport:
        cfg = self.config
        up, down = cfg.comm_legs()
        stages = (up, self.t3e_time, down, cfg.display_time)
        free = [0.0] * len(stages)  # when each stage finishes its last image
        records: list[ImageRecord] = []
        now = 0.0  # the scanner's clock
        for k in range(cfg.n_images):
            scan_time = (k + 1) * cfg.repetition_time
            if scan_time > now:
                now += scan_time - now
            server_time = now + cfg.delivery_delay
            t = server_time
            spans = []
            for i, busy in enumerate(stages):
                start = max(t, free[i])
                t = free[i] = start + busy
                spans.append((start, t))
            records.append(
                ImageRecord(
                    index=k,
                    scan_time=scan_time,
                    server_time=server_time,
                    t3e_start=spans[1][0],
                    t3e_end=spans[1][1],
                    display_time=t,
                )
            )
        return PipelineReport(cfg, records, self.t3e_time)
