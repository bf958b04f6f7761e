"""Ghost decomposition of a detector error model.

Every mechanism is split by (patch, detector class) into components,
since each patch is decoded as two independent class graphs joined only
by correlation links.  Components of an interpatch mechanism become a
ghost pair when one side is a single detector: the multi-detector side
(g_e) stays in its patch's graph, while the singleton (g_s) would look
exactly like a boundary edge on the partner patch and is therefore
only exposed to the matcher on selected decoding passes.

Components with three detectors in one class (hook-type faults pushed
across a transversal Hadamard) are split into a two-detector edge plus
a singleton so that every stored edge is graphlike.  The pair is chosen
to coincide with an edge that already exists naturally when possible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .circuits import CircuitError
from .dem import DetectorErrorModel

CLASSES = ("Z", "X")


class DecompositionError(CircuitError):
    """A mechanism does not fit the two-patch graphlike structure."""


@dataclass(frozen=True)
class Component:
    """An intra-patch, intra-class graphlike fragment of one mechanism."""

    index: int
    mech_id: int
    patch: int
    cls: str
    detectors: tuple[int, ...]
    observables: tuple[int, ...]
    probability: float
    role: str = "normal"          # normal | ghost_e | ghost_s
    pair_id: int | None = None
    partner: int | None = None    # same-patch other-class component index
    open_boundary: bool = False   # created by a temporal window cut
    cut_partners: tuple[int, ...] = ()   # own detectors hidden by the cut

    def __post_init__(self):
        if len(self.detectors) not in (1, 2):
            raise DecompositionError(f"component with {len(self.detectors)} detectors")
        if self.role not in ("normal", "ghost_e", "ghost_s"):
            raise DecompositionError(f"unknown role {self.role!r}")


@dataclass(frozen=True)
class GhostPair:
    """Component indices of an interpatch mechanism's witness and singleton.

    A pair's id is its position in ``DecomposedDEM.pairs``; its mechanism
    and probability are those of ``components[g_s]``.
    """

    g_e: int
    g_s: int


@dataclass(frozen=True)
class DecomposedDEM:
    dem: DetectorErrorModel
    components: tuple[Component, ...]
    pairs: tuple[GhostPair, ...]
    invisible: tuple[int, ...]    # mechanism ids with observables but no detectors


def _collect_split(dem, mech):
    split: dict[tuple[int, str], list[int]] = {}
    for d in mech.detectors:
        key = (dem.detector_patch[d], dem.detector_class[d])
        split.setdefault(key, []).append(d)
    return {k: tuple(sorted(v)) for k, v in split.items()}


def _natural_pairs(dem) -> set[tuple[int, int]]:
    pairs = set()
    for mech in dem.mechanisms:
        for dets in _collect_split(dem, mech).values():
            if len(dets) == 2:
                pairs.add(dets)
    return pairs


def _split_three(dem, dets, natural) -> list[tuple[int, ...]]:
    """Break a 3-detector component into a pair and a singleton."""
    a, b, c = dets
    options = [(a, b), (a, c), (b, c)]
    known = [o for o in options if o in natural]
    if known:
        pair = known[0]
    else:
        def gap(o):
            u, v = o
            return (abs(dem.detector_time[u] - dem.detector_time[v]), o)
        pair = min(options, key=gap)
    single = tuple(d for d in dets if d not in pair)
    return [pair, single]


def _assign_observables(dem, mech_obs, fragment_keys):
    """Assign each observable flip of a mechanism to one fragment.

    Flips of an observable read out in basis B are caused by the error
    part whose defects land on class-B detectors, so the fragment on
    (observable patch, readout class) is preferred, then any fragment
    on the observable's patch, then the first fragment in sorted order.
    Ties go to the largest fragment.
    """
    order = sorted(range(len(fragment_keys)),
                   key=lambda i: (fragment_keys[i][0][0], fragment_keys[i][0][1],
                                  -len(fragment_keys[i][1])))
    out = [[] for _ in fragment_keys]
    for j in mech_obs:
        opatch = dem.observable_patch[j]
        ocls = dem.observable_class[j]
        on_patch = [i for i in order if fragment_keys[i][0][0] == opatch]
        matched = [i for i in on_patch if fragment_keys[i][0][1] == ocls]
        pick = (matched or on_patch or order)[0]
        out[pick].append(j)
    return out


def ghost_decompose(dem: DetectorErrorModel) -> DecomposedDEM:
    natural = _natural_pairs(dem)
    components: list[Component] = []
    pairs: list[GhostPair] = []
    invisible: list[int] = []
    for e, mech in enumerate(dem.mechanisms):
        if not mech.detectors:
            invisible.append(e)
            continue
        split = _collect_split(dem, mech)
        patches = {p for p, _ in split}
        if len(patches) > 2:
            raise DecompositionError(f"mechanism {e} spans patches {sorted(patches)}")
        # fragments: list of ((patch, cls), det tuple, came_from_split)
        fragments = []
        for key in sorted(split):
            dets = split[key]
            if len(dets) <= 2:
                fragments.append((key, dets, False))
            elif len(dets) == 3:
                pair, single = _split_three(dem, dets, natural)
                fragments.append((key, pair, True))
                fragments.append((key, single, True))
            else:
                raise DecompositionError(
                    f"mechanism {e} has {len(dets)} detectors on patch {key[0]} "
                    f"class {key[1]}: {sorted(dets)}")
        obs_assign = _assign_observables(dem, mech.observables,
                                         [(k, d) for k, d, _ in fragments])
        first = len(components)
        for (key, dets, _), obs in zip(fragments, obs_assign):
            components.append(Component(len(components), e, key[0], key[1],
                                        dets, tuple(sorted(obs)),
                                        mech.probability))
        _link_partners(components, first, len(components))
        # only clean two-fragment splits become ghost pairs, so that the
        # pair's detectors XOR back to the whole source mechanism
        if len(patches) == 2 and len(fragments) == 2:
            _assign_ghost_roles(components, pairs, first, len(components),
                                [f[2] for f in fragments])
    return DecomposedDEM(dem, tuple(components), tuple(pairs), tuple(invisible))


def _link_partners(components, lo, hi) -> None:
    """Cross-class correlation links within each patch of one mechanism."""
    by_patch: dict[int, dict[str, int]] = {}
    for i in range(lo, hi):
        c = components[i]
        slot = by_patch.setdefault(c.patch, {})
        # keep the largest fragment per class as the correlation anchor
        if c.cls not in slot or len(c.detectors) > len(components[slot[c.cls]].detectors):
            slot[c.cls] = i
    for slot in by_patch.values():
        if len(slot) == 2:
            a, b = sorted(slot.values())
            components[a] = replace(components[a], partner=b)
            components[b] = replace(components[b], partner=a)


def _assign_ghost_roles(components, pairs, lo, hi, from_split) -> None:
    """Pick at most one (g_e, g_s) pair among an interpatch mechanism's parts.

    g_s is the lone detector on the side with fewer defects; g_e is its
    best witness on the other patch (same class preferred, then larger).
    Remaining fragments stay as always-present edges.
    """
    idx = list(range(lo, hi))
    per_patch: dict[int, int] = {}
    for i in idx:
        c = components[i]
        per_patch[c.patch] = per_patch.get(c.patch, 0) + len(c.detectors)
    singles = [i for i in idx if len(components[i].detectors) == 1]
    if not singles:
        return
    # components that were whole before any 3-detector split are preferred
    whole = [i for i in singles if not from_split[i - lo]]

    def gs_rank(i):
        c = components[i]
        return (per_patch[c.patch], c.patch, c.cls, c.detectors)

    gs_i = min(whole or singles, key=gs_rank)
    gs = components[gs_i]
    other = [i for i in idx if components[i].patch != gs.patch]
    if not other:
        return

    def ge_rank(i):
        c = components[i]
        return (c.cls != gs.cls, -len(c.detectors), c.cls, c.detectors)

    ge_i = min(other, key=ge_rank)
    pair_id = len(pairs)
    components[gs_i] = replace(gs, role="ghost_s", pair_id=pair_id)
    components[ge_i] = replace(components[ge_i], role="ghost_e", pair_id=pair_id)
    pairs.append(GhostPair(ge_i, gs_i))
