"""Network layer: server <-> terminal <-> SOE over a real socket.

The paper's deployment (Section 2) separates the untrusted server
holding the encrypted document from the terminal/SOE pair rendering
authorized views; PR 1's :class:`~repro.engine.station.SecureStation`
exercised that split in-process only.  This package puts a wire on the
boundary:

* :mod:`repro.server.protocol` — the length-prefixed binary frame
  format (HELLO / WELCOME / QUERY / CHUNK / RESULT / ERROR / STATS /
  UPDATE / INVALIDATED), with an incremental decoder shared by both
  ends;
* :mod:`repro.server.frames` — :class:`~repro.server.frames.FrameServer`,
  the asyncio frame server (lifecycle, decode loop, HELLO gate,
  dispatch table, error frames) under the station server and the
  cluster gateway;
* :mod:`repro.server.service` — :class:`StationServer`, an asyncio TCP
  server wrapping a station: concurrent clients, evaluation on a
  worker pool of one thread per CPU, chunks sealed and streamed from
  the event loop, per-session limits and a STATS endpoint;
  :class:`ServerThread` runs it from blocking code;
* :mod:`repro.server.client` — :class:`RemoteSession`, the blocking
  SDK mirroring the in-process evaluate API.

Served throughput and latency are measured by ``perfbench/run.py``.

Layering: ``repro.server`` sits beside the applications, *above* the
engine; nothing below imports it.  The client SDK is imported from its
submodule, so a serving process never loads it.
"""

from repro.server.protocol import Frame, FrameDecoder, ProtocolError
from repro.server.service import ServerThread, StationServer, hospital_station

__all__ = [
    "Frame",
    "FrameDecoder",
    "ProtocolError",
    "StationServer",
    "ServerThread",
    "hospital_station",
]
