"""User registry, API keys and groups (system S11, paper Sec. III/IV-A).

The repository "allows only registered users to upload" and
authenticates every API call with an *API key*.  Two key flavors match
the paper:

* **random keys** — "a random string of 20 characters/digits",
* **keypairs** — "public and private key pairs ... we record only the
  public key in our user database".  Without a crypto library the
  keypair is realized as a hash commitment: the private key is a random
  secret, the stored public key is ``sha256(private)``; presenting the
  private key proves ownership without the registry ever storing it.
  (This preserves the property the paper relies on: a database leak does
  not reveal usable credentials.)

Both flavors authenticate through :meth:`UserRegistry.authenticate`.
Users may own several keys, may revoke them, and may belong to groups
(used by group-level record accessibility).
"""

from __future__ import annotations

import hashlib
import secrets
import string
import threading
from dataclasses import dataclass, field

__all__ = ["User", "UserRegistry", "AuthError"]

_KEY_ALPHABET = string.ascii_letters + string.digits
_KEY_LENGTH = 20


class AuthError(PermissionError):
    """Authentication or authorization failure."""


@dataclass(frozen=True)
class KeyPair:
    """A generated keypair; only ``public`` ever reaches the registry."""

    private: str
    public: str


@dataclass
class User:
    """A registered crowd-tuning user."""

    username: str
    email: str
    groups: set[str] = field(default_factory=set)
    #: random API keys (stored hashed, never in the clear)
    key_hashes: set[str] = field(default_factory=set)
    #: public halves of keypair credentials
    public_keys: set[str] = field(default_factory=set)


def _hash(value: str) -> str:
    return hashlib.sha256(value.encode()).hexdigest()


class UserRegistry:
    """In-memory user database with API-key authentication.

    Thread-safe: in the sharded service one registry is shared by every
    shard (accounts are not sharded), so registrations race with
    authentications from router worker threads.
    """

    def __init__(self) -> None:
        self._users: dict[str, User] = {}
        self._emails: dict[str, str] = {}
        self._lock = threading.RLock()

    # -- registration --------------------------------------------------------
    def register(self, username: str, email: str) -> User:
        if not username or not email or "@" not in email:
            raise ValueError("registration needs a username and a valid email")
        with self._lock:
            if username in self._users:
                raise ValueError(f"username {username!r} already registered")
            if email in self._emails:
                raise ValueError(f"email {email!r} already registered")
            user = User(username=username, email=email)
            self._users[username] = user
            self._emails[email] = username
            return user

    def get(self, username: str) -> User:
        try:
            with self._lock:
                return self._users[username]
        except KeyError:
            raise KeyError(f"unknown user {username!r}")

    def lookup_email(self, email: str) -> User:
        try:
            with self._lock:
                return self._users[self._emails[email]]
        except KeyError:
            raise KeyError(f"no user with email {email!r}")

    def usernames(self) -> list[str]:
        with self._lock:
            return sorted(self._users)

    # -- groups -----------------------------------------------------------------
    def add_to_group(self, username: str, group: str) -> None:
        if not group:
            raise ValueError("group name must be non-empty")
        self.get(username).groups.add(group)

    def remove_from_group(self, username: str, group: str) -> None:
        self.get(username).groups.discard(group)

    # -- API keys ------------------------------------------------------------------
    def issue_api_key(self, username: str) -> str:
        """Generate a random 20-character API key for ``username``.

        The key itself is returned once and only its hash is stored —
        the user must keep it "securely, because API keys are user login
        credentials".
        """
        user = self.get(username)
        key = "".join(secrets.choice(_KEY_ALPHABET) for _ in range(_KEY_LENGTH))
        with self._lock:
            user.key_hashes.add(_hash(key))
        return key

    def issue_keypair(self, username: str) -> KeyPair:
        """Generate a keypair; the registry records only the public half."""
        user = self.get(username)
        private = secrets.token_hex(32)
        public = _hash(private)
        user.public_keys.add(public)
        return KeyPair(private=private, public=public)

    def revoke_key(self, username: str, key_or_private: str) -> bool:
        """Revoke a random key or keypair by presenting the secret."""
        user = self.get(username)
        h = _hash(key_or_private)
        if h in user.key_hashes:
            user.key_hashes.discard(h)
            return True
        if h in user.public_keys:
            user.public_keys.discard(h)
            return True
        return False

    # -- authentication ----------------------------------------------------------------
    def authenticate(self, api_key: str) -> User:
        """Resolve an API key (random or keypair-private) to its user."""
        if not isinstance(api_key, str):
            raise AuthError("API key must be a string")
        if not api_key:
            raise AuthError("empty API key")
        h = _hash(api_key)
        with self._lock:
            for user in self._users.values():
                if h in user.key_hashes or h in user.public_keys:
                    return user
        raise AuthError("invalid API key")
