"""Reference cycle-search keys.

`canonical_state_key` is the canonical word plus the least projectivized
measure over the canonical labelings.  Two states with equal reference keys
have the same ribbon graph and the same measure up to scale under some
canonical labeling, so this key is a much finer filter than
`splitting._state_key`, which reads the state's point alone.

`rational_state_key` reads the weights alone too, as field elements: each
weight divided by their sum, as sorted (num, den) pairs.  Its classes are
those of `splitting._state_key`, which computes the same projective point
in integers.

`rational_match` is the exact match test in field arithmetic: the ratio
lambda of one pair of weights, then every weight checked against it.
`splitting._match_states` compares the two states' integer points instead.

The tests check that the cycle search finds the same cycle under every key,
and that both match tests agree on every candidate pair.
"""

from splitseq.numberfield import nf_const, nf_sign
from splitseq.traintrack import Measure, TrainTrack, canonical_form, track_isomorphisms


def canonical_state_key(t: TrainTrack, m: Measure):
    word, labs = canonical_form(t)
    weights = [w for _, w in m.weights]
    scale = 1 / sum(weights[1:], weights[0])
    scaled = {b: w * scale for b, w in m.weights}
    key_vec = min(
        tuple(
            (scaled[b].num, scaled[b].den)
            for b in sorted(lab.branch_map, key=lambda b: lab.branch_map[b][0])
        )
        for lab in labs
    )
    return (word, key_vec)


def rational_state_key(t: TrainTrack, m: Measure):
    weights = [w for _, w in m.weights]
    scale = 1 / sum(weights[1:], weights[0])
    return tuple(sorted((s.num, s.den) for s in (w * scale for w in weights)))


def rational_match(t_new: TrainTrack, m_new: Measure, t_old: TrainTrack, m_old: Measure):
    """Iso old <- new with m_old = lam * (m_new transported), lam > 1,
    checked branch by branch in Q(lambda)."""
    for iso in track_isomorphisms(t_new, t_old):
        b0 = t_new.branches[0]
        lam = m_old.weight(iso.branch_image(b0)[0]) / m_new.weight(b0)
        if all(
            (m_old.weight(iso.branch_image(b)[0]) - lam * m_new.weight(b)).is_zero()
            for b in t_new.branches
        ):
            if nf_sign(lam - nf_const(lam.field, 1)) == 1:
                return iso, lam
    return None
