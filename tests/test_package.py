"""The package's export list."""

import gaugelab


def test_star_import_binds_every_export():
    namespace = {}
    exec("from gaugelab import *", namespace)
    assert len(set(gaugelab.__all__)) == len(gaugelab.__all__)
    assert set(gaugelab.__all__) <= namespace.keys()
