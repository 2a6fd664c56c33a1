"""Every toolkit error survives pickling with its type, message and
attributes, as it must to cross from a forked worker, a grid group's or
a corpus chunk's, to the parent."""

import inspect
import pickle

import pytest

from espunct import errors

ERRORS = [
    cls
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.PunctError)
]
# Constructor arguments of the errors that take more than a message.
ARGS = {
    errors.MalformedRecord: (7, "not a JSON object"),
    errors.PipelineError: ("train:x", errors.IoFailure("boom")),
}


def _assert_same(got, want):
    assert type(got) is type(want)
    assert str(got) == str(want)
    assert vars(got).keys() == vars(want).keys()
    for name, value in vars(want).items():
        if isinstance(value, BaseException):
            _assert_same(vars(got)[name], value)
        else:
            assert vars(got)[name] == value, name


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_error_survives_pickling(cls):
    exc = cls(*ARGS.get(cls, ("something broke",)))
    _assert_same(pickle.loads(pickle.dumps(exc)), exc)


def test_only_configuration_errors_exit_2():
    exits_2 = {cls for cls in ERRORS if cls.exit_code == 2}
    assert exits_2 == {errors.ConfigError, errors.ModelLoadError}
    assert errors.PunctError("x").exit_code == 3


@pytest.mark.parametrize(
    "cause, code",
    [
        (errors.ConfigError("bad key"), 2),
        (errors.ModelLoadError("bad model"), 2),
        (errors.EmptyCorpus("no utterances"), 3),
        (OSError("disk full"), 3),
    ],
    ids=["config", "model", "data", "os"],
)
def test_a_pipeline_error_exits_as_its_cause(cause, code):
    exc = errors.PipelineError("load:ldc", cause)
    assert exc.exit_code == code
    # Grid workers send their failures back pickled.
    assert pickle.loads(pickle.dumps(exc)).exit_code == code
