"""The package namespace: each core module's public names, listed once."""

import nfvel
from nfvel import bounds, constants, estimator, geometry, waveform

CONSTANTS = ("BOLTZMANN_CONSTANT", "REFERENCE_TEMPERATURE", "SPEED_OF_LIGHT")


def test_all_is_the_union_of_the_core_modules():
    modules = (bounds, estimator, geometry, waveform)
    expected = [name for module in modules for name in module.__all__]
    expected += [*CONSTANTS, "__version__"]
    assert sorted(nfvel.__all__) == sorted(expected)
    assert len(set(nfvel.__all__)) == len(nfvel.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(nfvel, name) is getattr(module, name), name
    for name in CONSTANTS:
        assert getattr(nfvel, name) is getattr(constants, name)
