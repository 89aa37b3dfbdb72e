"""Crowd-tuning infrastructure (systems S8-S15).

The shared-database stack of the paper's Fig. 1/Fig. 2: a JSON document
store, the performance-record schema, users/API keys/access control,
automatic environment parsing, tag-name matching, the repository service,
and the user-facing crowd-tuning API with its utility functions.
"""

from .api import CrowdClient, MetaDescription
from .configmatch import CanonicalEntry, TagMatcher, default_matcher
from .database import Collection, DocumentStore, QuerySyntaxError
from .analytics import (
    RepeatGroup,
    VariabilityReport,
    detect_outliers,
    group_repeats,
    variability_report,
)
from .environment import (
    EnvironmentParseError,
    parse_ck_meta,
    parse_slurm_environment,
    parse_spack_spec,
    parse_version,
)
from .query import SqlQuery, SqlSyntaxError, build_filter
from .records import ACCESS_LEVELS, Accessibility, PerformanceRecord
from .repository import CrowdRepository
from .users import AuthError, KeyPair, User, UserRegistry
from .views import (
    LeaderboardRow,
    contributor_stats,
    leaderboard,
    machine_breakdown,
    render_html,
    render_text,
)

__all__ = [
    "ACCESS_LEVELS",
    "Accessibility",
    "AuthError",
    "CanonicalEntry",
    "Collection",
    "CrowdClient",
    "CrowdRepository",
    "DocumentStore",
    "EnvironmentParseError",
    "KeyPair",
    "LeaderboardRow",
    "MetaDescription",
    "PerformanceRecord",
    "QuerySyntaxError",
    "RepeatGroup",
    "VariabilityReport",
    "SqlQuery",
    "SqlSyntaxError",
    "TagMatcher",
    "User",
    "UserRegistry",
    "build_filter",
    "default_matcher",
    "detect_outliers",
    "group_repeats",
    "leaderboard",
    "contributor_stats",
    "machine_breakdown",
    "render_html",
    "render_text",
    "parse_ck_meta",
    "parse_slurm_environment",
    "parse_spack_spec",
    "parse_version",
    "variability_report",
]
