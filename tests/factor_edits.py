"""Test helper: edit a model state's factors, which are read-only."""

from contextlib import contextmanager
from types import SimpleNamespace

from lmhbrtf.model import Factor, FactorState


@contextmanager
def edited_factors(state):
    """Yield writable copies of the factor arrays of *state*.

    The namespace has ``u_mean``, ``v_mean``, ``sigma_u``, ``sigma_v``
    and ``ranks``; edit them in place or rebind them.  On exit the state
    gets a new :class:`FactorState` built from them, with no statistic
    cached from the old factors.
    """
    f = state.factors
    edit = SimpleNamespace(u_mean=f.u_mean.copy(), v_mean=f.v_mean.copy(),
                           sigma_u=f.sigma_u.copy(), sigma_v=f.sigma_v.copy(),
                           ranks=f.ranks.copy())
    yield edit
    state.factors = FactorState(u=Factor(edit.u_mean, edit.sigma_u),
                                v=Factor(edit.v_mean, edit.sigma_v),
                                ranks=edit.ranks)
