"""The FL server (Sec. 4): an actor system on simulated time.

Actors are "universal primitives of concurrent computation which use
message passing as the sole communication mechanism".  Our kernel gives
each actor a sequentially processed mailbox on the discrete-event loop
(messages cross the device edge; server actors call each other),
supervision (one restart mechanism: the layer that spawns an actor may
restart it, :class:`Restart`), and failure injection — enough to
reproduce every failure mode in Sec. 4.4:

* Aggregator/Selector crash — only their devices are lost; the fleet
  restarts a Selector after its restart delay;
* Master Aggregator crash — its round fails, and the Coordinator that
  spawned it restarts the round; a crashed shard aggregator is restarted
  by its master;
* Coordinator crash — the tenant's lifecycle plane, which spawned it,
  respawns it at the crash instant, exactly once.
"""

from repro.actors.kernel import Actor, ActorRef, ActorSystem, Restart
from repro.actors.locking import LockService
from repro.actors.coordinator import Coordinator, CoordinatorConfig
from repro.actors.selector import Selector
from repro.actors.master_aggregator import MasterAggregator
from repro.actors.aggregator import Aggregator

__all__ = [
    "Actor",
    "ActorRef",
    "ActorSystem",
    "Restart",
    "LockService",
    "Coordinator",
    "CoordinatorConfig",
    "Selector",
    "MasterAggregator",
    "Aggregator",
]
