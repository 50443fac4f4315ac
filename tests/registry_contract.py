"""The registry contract, written once for every back-end family.

The matcher kernels and the star-LP tiers are each one
:class:`repro._backends.Registry`.  :class:`RegistryContract` holds the
registry tests both families share.  A test module binds it to one registry
with a subclass named ``TestRegistry`` that sets the class attributes below,
and keeps its backend-specific cases in that subclass.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError


class RegistryContract:
    #: The :class:`~repro._backends.Registry` under test.
    registry = None
    #: Its public module-level names, in the order
    #: ``(register, unregister, names, resolve, ENV, DEFAULT)``.
    public = ()
    #: Exactly the built-in back-end names.
    builtins = frozenset()
    #: A built-in other than the default, and the class it resolves to.
    alternative = ("", object)

    def test_public_names_are_the_registry(self):
        register, unregister, names, resolve, env_var, default = self.public
        assert register == self.registry.register
        assert unregister == self.registry.unregister
        assert names == self.registry.names
        assert resolve == self.registry.resolve
        assert (env_var, default) == (self.registry.env_var, self.registry.default)

    def test_builtin_backends_registered(self):
        assert set(self.registry.names()) == set(self.builtins)

    def test_unknown_name_raises_value_error_listing_backends(self):
        with pytest.raises(ValueError, match="valid backends are") as excinfo:
            self.registry.resolve("no-such-backend")
        message = str(excinfo.value)
        assert f"unknown {self.registry.kind} backend 'no-such-backend'" in message
        for name in self.registry.names():
            assert name in message

    def test_unknown_name_is_configuration_error(self):
        with pytest.raises(ConfigurationError):
            self.registry.resolve("definitely-not-registered")

    def test_instance_passthrough(self):
        instance = self.registry.names()[self.registry.default]()
        assert self.registry.resolve(instance) is instance

    def test_named_backends_are_shared_instances(self):
        default = self.registry.default
        assert self.registry.resolve(default) is self.registry.resolve(default)

    def test_env_var_selects_default(self, monkeypatch):
        name, cls = self.alternative
        monkeypatch.setenv(self.registry.env_var, name)
        assert isinstance(self.registry.resolve(None), cls)
        monkeypatch.delenv(self.registry.env_var)
        resolved = self.registry.resolve(None)
        assert resolved is self.registry.resolve(self.registry.default)

    def test_register_and_unregister_custom_backend(self):
        default_cls = type(self.registry.resolve(self.registry.default))
        recording = type("Recording", (default_cls,), {"name": "recording"})
        try:
            self.registry.register("recording", recording)
            assert isinstance(self.registry.resolve("recording"), recording)
        finally:
            self.registry.unregister("recording")
        with pytest.raises(ConfigurationError):
            self.registry.resolve("recording")

    def test_register_rejects_bad_arguments(self):
        default_cls = type(self.registry.resolve(self.registry.default))
        with pytest.raises(ConfigurationError):
            self.registry.register("", default_cls)
        with pytest.raises(ConfigurationError):
            self.registry.register("broken", "not-a-factory")
        assert "broken" not in self.registry.names()

    def test_factory_must_return_backend(self):
        try:
            self.registry.register("bogus", lambda: object())
            with pytest.raises(ConfigurationError, match=f"not a {self.registry.base.__name__}"):
                self.registry.resolve("bogus")
        finally:
            self.registry.unregister("bogus")
