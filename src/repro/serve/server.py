"""Single-model serving: the one-point Pareto front.

:class:`PlanServer` is a :class:`~repro.serve.FleetServer` with exactly
one model registered under the plan's name, so one server class owns
the request path — image validation, routing, micro-batching, batch
execution (thread replicas over the shared
:class:`~repro.serve.PlanCache`, or a :class:`~repro.serve.WorkerPool`
of worker processes under ``policy.worker_mode="process"``), graceful
drain and ``stats()``:

.. code-block:: text

    server = PlanServer(plan, ServeConfig(policy=BatchPolicy(...)))
    response = server.submit(ServeRequest(image=x)).result()
    response.row, response.model == plan.name, response.queue_ms, ...
"""

from __future__ import annotations

from repro.deploy.plan import InferencePlan
from repro.serve.config import ServeConfig
from repro.serve.fleet import FleetServer

__all__ = ["PlanServer"]


class PlanServer(FleetServer):
    """A :class:`~repro.serve.FleetServer` serving one compiled plan.

    ``plan`` is registered under ``plan.name`` with no latency table, so
    every request routes to it; ``config`` is the usual
    :class:`~repro.serve.ServeConfig`.  Everything else — ``submit``,
    ``infer``, ``stats``, ``close``, process mode — is the fleet's.
    """

    def __init__(self, plan: InferencePlan, config: ServeConfig | None = None) -> None:
        super().__init__(config)
        try:
            self.register(plan.name, plan)
        except BaseException:
            self.close()
            raise
