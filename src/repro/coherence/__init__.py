"""Memory-system substrate: MOESI broadcast snooping a la Sun Gigaplane."""

from repro.coherence.bus import Bus, LineDirectory
from repro.coherence.cache import CacheArray, CapacityError, VictimCache
from repro.coherence.controller import CacheController
from repro.coherence.datanet import DataNetwork
from repro.coherence.memory import MemoryController, ValueStore
from repro.coherence.messages import (MEMORY, BusRequest, Marker, Probe,
                                      ReqKind, Timestamp, beats)
from repro.coherence.mshr import Mshr, MshrFile
from repro.coherence.states import Line, State

__all__ = [
    "Bus", "LineDirectory", "CacheArray", "VictimCache", "CapacityError",
    "CacheController", "DataNetwork", "MemoryController",
    "ValueStore", "BusRequest", "Marker", "Probe", "ReqKind", "Timestamp",
    "beats", "MEMORY", "Mshr", "MshrFile", "Line", "State",
]
