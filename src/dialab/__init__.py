"""Desk-scale laboratory for RL-based dialogue management on a restaurant
domain: simulated user, noisy-channel belief tracking, GPSARSA / DQN / DDQN /
advantage actor-critic managers, and a two-stage (supervised + batch RL +
online RL) training pipeline."""

__version__ = "0.1.0"

from .ontology import Restaurant, SystemAct, UserAct, UserGoal
from .tracker import BeliefState, ErrorModel
from .environment import DialogueEnv, EnvConfig, Transition

__all__ = [
    "Restaurant", "SystemAct", "UserAct", "UserGoal",
    "BeliefState", "ErrorModel", "DialogueEnv", "EnvConfig", "Transition",
    "__version__",
]
