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

    speculative = True

    def _speculative_switch_allocation(self, fresh: List[Tuple[int, int]],
                                       matched_in: int,
                                       matched_out: int) -> None:
        """After non-speculative SA and VA (see
        :meth:`VCRouter.work_phase`), grant free outputs to the ``fresh``
        VA winners, restricted to crossbar slots the non-speculative pass
        left free (speculation never displaces a confirmed request); the
        port bitmasks name what that pass matched."""
        vcs = self.vcs
        out_credits = self.out_credits
        by_output: Dict[int, List[Tuple[int, int]]] = {}
        for in_port, v in fresh:
            if matched_in >> in_port & 1:
                continue
            vc = vcs[in_port][v]
            if matched_out >> vc.out_port & 1:
                continue
            credits = out_credits[vc.out_port]
            if credits is not None and credits[vc.out_vc] <= 0:
                continue
            by_output.setdefault(vc.out_port, []).append((in_port, v))
        for out_port, contenders in by_output.items():
            # One speculative winner per free output; inputs granted a
            # speculative slot leave the pool (one grant per input).
            contenders = [(p, v) for p, v in contenders
                          if not matched_in >> p & 1]
            if not contenders:
                continue
            arb = self.switch_arbiters[out_port]
            if len(contenders) == 1:
                winner_port, winner_vc = contenders[0]
                arb.grant_single(winner_port)
            else:
                winner_port = arb.grant([p for p, _ in contenders])
                winner_vc = next(v for p, v in contenders
                                 if p == winner_port)
            self._c_arb_switch[len(contenders)] += 1
            vc = vcs[winner_port][winner_vc]
            credits = out_credits[out_port]
            if credits is not None:
                credits[vc.out_vc] -= 1
            matched_in |= 1 << winner_port
            self._st_grants.append(
                (winner_port, winner_vc, out_port, vc.out_vc))
