"""Speculative virtual-channel router (Peh & Dally [15], second half).

The paper pipelines its VC routers per the Peh-Dally delay model; the
same work proposes a *speculative* architecture that collapses the
pipeline from three stages to two: a head flit bids for the switch in
the same cycle it requests a virtual channel, the speculative switch
request being honoured only if (a) the VC allocation succeeds and (b)
no non-speculative request claimed the crossbar slot.

This router is the "new microarchitectural technique" usage pattern of
the paper's Figure 3 in action: it reuses the VC router's modules,
power models and allocation machinery, adding only the speculative
grant pass — heads save one cycle per hop, body flits are unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.sim.routers.vc import VCRouter


class SpeculativeVCRouter(VCRouter):
    """VC router with speculative switch allocation (2-stage pipeline)."""

    def allocation_phase(self, cycle: int) -> None:
        """Non-speculative SA, then VA, then a speculative SA pass for
        the heads that just won VA, restricted to crossbar slots the
        non-speculative pass left free (speculation never displaces a
        confirmed request)."""
        matched_in, matched_out = self._switch_allocation(cycle)
        fresh = self._vc_allocation(cycle)
        self._speculative_switch_allocation(cycle, fresh, matched_in,
                                            matched_out)

    def _speculative_switch_allocation(self, cycle: int,
                                       fresh: List[Tuple[int, int]],
                                       matched_in: set,
                                       matched_out: set) -> None:
        by_output: Dict[int, List[Tuple[int, int]]] = {}
        for in_port, v in fresh:
            if in_port in matched_in:
                continue
            vc = self.vcs[in_port][v]
            if vc.out_port in matched_out:
                continue
            credits = self.out_credits[vc.out_port]
            if credits is not None and credits[vc.out_vc] <= 0:
                continue
            by_output.setdefault(vc.out_port, []).append((in_port, v))
        for out_port, contenders in by_output.items():
            # One speculative winner per free output; inputs granted a
            # speculative slot leave the pool (one grant per input).
            contenders = [(p, v) for p, v in contenders
                          if p not in matched_in]
            if not contenders:
                continue
            ports = [p for p, _ in contenders]
            if len(ports) == 1:
                winner_port = self.switch_arbiters[out_port] \
                    .grant_single(ports[0])
            else:
                winner_port = self.switch_arbiters[out_port].grant(ports)
            self.binding.arbitration(self.node, "switch", len(ports))
            winner_vc = next(v for p, v in contenders
                             if p == winner_port)
            vc = self.vcs[winner_port][winner_vc]
            credits = self.out_credits[out_port]
            if credits is not None:
                credits[vc.out_vc] -= 1
            matched_in.add(winner_port)
            matched_out.add(out_port)
            self._st_grants.append(
                (winner_port, winner_vc, out_port, vc.out_vc))
