"""Ghost decomposition of a detector error model.

Every mechanism is split by (patch, detector class) into components,
since each patch is decoded as two independent class graphs joined only
by correlation links.  Components of an interpatch mechanism become a
ghost pair when one side is a single detector: the multi-detector side
(g_e) stays in its patch's graph, while the singleton (g_s) would look
exactly like a boundary edge on the partner patch and is therefore
never shown to the matcher: its detector is a node of the partner's
graph, toggled only when the witness is committed.  A mechanism
splits into at most one pair, so a pair is keyed by its mechanism's id.

Components with three detectors in one class (hook-type faults pushed
across a transversal Hadamard) are split into a two-detector edge plus
a singleton so that every stored edge is graphlike.  The pair is chosen
to coincide with an edge that already exists naturally when possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    partner: int | None = None    # same-patch other-class component index
    open_boundary: bool = False   # created by a temporal window cut
    cut_partners: tuple[int, ...] = ()   # own detectors hidden by the cut

    def __post_init__(self):
        if len(self.detectors) not in (1, 2):
            raise DecompositionError(f"component with {len(self.detectors)} detectors")
        if self.role not in ("normal", "ghost_e", "ghost_s"):
            raise DecompositionError(f"unknown role {self.role!r}")


@dataclass(frozen=True)
class DecomposedDEM:
    """A model's components, or a window's slice of them.

    A slice keeps its model's component indices, so in a slice they are
    not positions.  ``source`` is the model a slice was cut from and
    ``changed`` the patch-classes the cut changes; every other
    patch-class of the slice is its source's, component for component.
    ``graphs`` holds the patch-class graphs built for this model or
    slice, so its slices can share them.
    """

    dem: DetectorErrorModel
    components: tuple[Component, ...]
    invisible: tuple[int, ...]    # mechanism ids with observables but no detectors
    source: DecomposedDEM | None = field(default=None, compare=False,
                                         repr=False)
    changed: frozenset = frozenset()      # (patch, cls) keys
    graphs: dict = field(default_factory=dict, compare=False, repr=False)

    @cached_property
    def pairs(self) -> dict[int, tuple[Component, Component]]:
        """Ghost pairs as ``{mechanism id: (g_e, g_s)}``, in mechanism
        order, read off the components' roles on first use.  A pair's id
        is the id of the mechanism its two fragments split."""
        witness = {c.mech_id: c for c in self.components
                   if c.role == "ghost_e"}
        return {c.mech_id: (witness[c.mech_id], c) for c in self.components
                if c.role == "ghost_s"}


def _collect_split(dem, mech):
    split: dict[tuple[int, str], list[int]] = {}
    for d in mech.detectors:
        key = (dem.detector_patch[d], dem.detector_class[d])
        split.setdefault(key, []).append(d)
    return {k: tuple(v) for k, v in split.items()}


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
    splits = [_collect_split(dem, mech) for mech in dem.mechanisms]
    natural = {dets for split in splits for dets in split.values()
               if len(dets) == 2}
    components: list[Component] = []
    invisible: list[int] = []
    for e, (mech, split) in enumerate(zip(dem.mechanisms, splits)):
        if not split:
            invisible.append(e)
            continue
        patches = {p for p, _ in split}
        if len(patches) > 2:
            raise DecompositionError(f"mechanism {e} spans patches {sorted(patches)}")
        fragments = []            # ((patch, cls), detector tuple)
        for key in sorted(split):
            dets = split[key]
            if len(dets) <= 2:
                fragments.append((key, dets))
            elif len(dets) == 3:
                fragments += [(key, part) for part in _split_three(dem, dets, natural)]
            else:
                raise DecompositionError(
                    f"mechanism {e} has {len(dets)} detectors on patch {key[0]} "
                    f"class {key[1]}: {sorted(dets)}")
        first = len(components)
        partner = _partner_links(fragments)
        roles = {}
        # only clean two-fragment splits become ghost pairs, so that the
        # pair's detectors XOR back to the whole source mechanism; each
        # patch then holds one fragment.  g_s is a lone detector (the
        # lower patch's when both are), g_e the other patch's fragment.
        if len(patches) == 2 and len(fragments) == 2:
            singles = [i for i, (_, dets) in enumerate(fragments) if len(dets) == 1]
            if singles:
                gs = singles[0]
                roles = {1 - gs: "ghost_e", gs: "ghost_s"}
        obs_assign = _assign_observables(dem, mech.observables, fragments)
        for i, ((patch, cls), dets) in enumerate(fragments):
            components.append(Component(
                first + i, e, patch, cls, dets, tuple(sorted(obs_assign[i])),
                mech.probability, role=roles.get(i, "normal"),
                partner=first + partner[i] if i in partner else None))
    return DecomposedDEM(dem, tuple(components), tuple(invisible))


def _partner_links(fragments) -> dict[int, int]:
    """Cross-class correlation links within each patch of one mechanism.

    The anchor of each (patch, class) is its first fragment, which is
    its largest: a split 3-detector part lists its pair first.
    """
    anchor: dict[tuple[int, str], int] = {}
    for i, (key, _) in enumerate(fragments):
        anchor.setdefault(key, i)
    return {i: anchor[patch, other]
            for (patch, cls), i in anchor.items()
            for other in CLASSES if other != cls and (patch, other) in anchor}
