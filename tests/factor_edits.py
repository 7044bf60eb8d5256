"""Test helper: edit a model state's factors, which are read-only."""

from contextlib import contextmanager
from types import SimpleNamespace

from lmhbrtf.model import Factor, FactorState


@contextmanager
def edited_factors(state):
    """Yield writable copies of the factor arrays of *state*.

    The namespace mirrors :class:`FactorState`: ``u.mean``, ``u.cov``,
    ``v.mean``, ``v.cov`` and ``ranks``; edit them in place or rebind
    them.  On exit the state gets a new :class:`FactorState` built from
    them, with no statistic cached from the old factors.
    """
    f = state.factors
    edit = SimpleNamespace(
        u=SimpleNamespace(mean=f.u.mean.copy(), cov=f.u.cov.copy()),
        v=SimpleNamespace(mean=f.v.mean.copy(), cov=f.v.cov.copy()),
        ranks=f.ranks.copy())
    yield edit
    state.factors = FactorState(u=Factor(edit.u.mean, edit.u.cov),
                                v=Factor(edit.v.mean, edit.v.cov),
                                ranks=edit.ranks)
