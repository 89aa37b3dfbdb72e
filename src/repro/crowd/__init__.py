"""Crowd-tuning infrastructure (systems S8-S15).

The shared-database stack of the paper's Fig. 1/Fig. 2: a JSON document
store, the performance-record schema, users/API keys/access control,
automatic environment parsing, tag-name matching, the repository service,
and the user-facing crowd-tuning API with its utility functions.
"""

from .api import CrowdClient, MetaDescription
from .configmatch import default_matcher
from .database import Collection, DocumentStore, QuerySyntaxError
from .analytics import detect_outliers, variability_report
from .environment import (
    EnvironmentParseError,
    parse_ck_meta,
    parse_slurm_environment,
    parse_spack_spec,
)
from .query import SqlQuery, SqlSyntaxError, build_filter
from .records import Accessibility, PerformanceRecord
from .repository import CrowdRepository
from .users import AuthError, User, UserRegistry
from .views import LeaderboardRow, contributor_stats, leaderboard

__all__ = [
    "Accessibility",
    "AuthError",
    "Collection",
    "CrowdClient",
    "CrowdRepository",
    "DocumentStore",
    "EnvironmentParseError",
    "LeaderboardRow",
    "MetaDescription",
    "PerformanceRecord",
    "QuerySyntaxError",
    "SqlQuery",
    "SqlSyntaxError",
    "User",
    "UserRegistry",
    "build_filter",
    "default_matcher",
    "detect_outliers",
    "leaderboard",
    "contributor_stats",
    "parse_ck_meta",
    "parse_slurm_environment",
    "parse_spack_spec",
    "variability_report",
]
