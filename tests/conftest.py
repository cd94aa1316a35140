import numpy as np
import pytest

from gridsac import power_flow
from gridsac.environment import GridControlEnv
from gridsac.grid_model import (Branch, Bus, BusKind, Generator, GridCase,
                                Plant, bundled_case)


@pytest.fixture(scope="session")
def case3():
    return bundled_case("case3")


@pytest.fixture(scope="session")
def case14():
    return bundled_case("case14")


def make_two_bus(p_load=1.0, q_load=0.0, r=0.0, x=0.1, b_charge=0.0):
    """Slack + PQ bus over a single branch."""
    return GridCase(
        base_mva=100.0,
        buses=(
            Bus(id=1, kind=BusKind.SLACK, v_mag=1.0),
            Bus(id=2, kind=BusKind.PQ, p_load=p_load, q_load=q_load),
        ),
        branches=(Branch(id=1, from_bus=1, to_bus=2, r=r, x=x,
                         b_charge=b_charge, s_max=2.0),),
        generators=(Generator(id=1, bus=1, p_gen=0.0, q_gen=0.0, p_min=-5.0,
                              p_max=5.0, q_min=-5.0, q_max=5.0, v_set=1.0,
                              plant=1),),
        plants=(Plant(id=1, name="a", generators=(1,)),),
        monitored_buses=(1, 2),
        monitored_branches=(1,),
    )


def make_three_bus(q_max_2=1.0, q_load_3=0.3):
    """Slack + PV + PQ triangle; generator 2's q_max is adjustable to force
    reactive-limit switching."""
    return GridCase(
        base_mva=100.0,
        buses=(
            Bus(id=1, kind=BusKind.SLACK, v_mag=1.0),
            Bus(id=2, kind=BusKind.PV, p_load=0.1, q_load=0.05),
            Bus(id=3, kind=BusKind.PQ, p_load=0.9, q_load=q_load_3),
        ),
        branches=(
            Branch(id=1, from_bus=1, to_bus=2, r=0.02, x=0.08, s_max=1.5),
            Branch(id=2, from_bus=1, to_bus=3, r=0.04, x=0.12, s_max=1.5),
            Branch(id=3, from_bus=2, to_bus=3, r=0.03, x=0.10, s_max=1.5),
        ),
        generators=(
            Generator(id=1, bus=1, p_gen=0.0, q_gen=0.0, p_min=-2.0, p_max=2.0,
                      q_min=-1.5, q_max=1.5, v_set=1.0, plant=1),
            Generator(id=2, bus=2, p_gen=0.5, q_gen=0.0, p_min=0.0, p_max=1.5,
                      q_min=-1.0, q_max=q_max_2, v_set=1.03, plant=2),
        ),
        plants=(
            Plant(id=1, name="a", generators=(1,)),
            Plant(id=2, name="b", generators=(2,)),
        ),
        monitored_buses=(1, 2, 3),
        monitored_branches=(1, 2, 3),
    )


@pytest.fixture
def two_bus():
    return make_two_bus()


@pytest.fixture
def three_bus():
    return make_three_bus()


def singular_jacobian_from_second_step(monkeypatch):
    """Make every Newton Jacobian built inside ``GridControlEnv.step`` all
    zero (singular) from an episode's second control step on; base solves
    and the first step keep the true Jacobian. Returns a dict whose
    ``"singular"`` entry counts the zeroed Jacobians."""
    jacobian, step = power_flow._jacobian, GridControlEnv.step
    state = {"on": False, "singular": 0}

    def zeroed_jacobian(*args):
        jac = jacobian(*args)
        if not state["on"]:
            return jac
        state["singular"] += 1
        return np.zeros_like(jac)

    def step_with_singular_jacobian(env, action):
        state["on"] = env.episode.step_count >= 1
        try:
            return step(env, action)
        finally:
            state["on"] = False

    monkeypatch.setattr(power_flow, "_jacobian", zeroed_jacobian)
    monkeypatch.setattr(GridControlEnv, "step", step_with_singular_jacobian)
    return state
