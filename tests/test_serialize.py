import numpy as np

from opalg.serialize import dumps

EDGE_FLOATS = [0.0, -0.0, 1.0, -3.0, 0.1, 2.5e-17, 1e16, 1e17, 5e-324,
               1.7976931348623157e308, float("inf"), float("-inf"),
               float("nan")]


def test_floats_render_with_17_significant_digits():
    assert dumps(EDGE_FLOATS) == (
        '[0.0,-0.0,1.0,-3.0,0.10000000000000001,2.4999999999999999e-17,'
        '10000000000000000.0,1e+17,4.9406564584124654e-324,'
        '1.7976931348623157e+308,"Infinity","-Infinity",NaN]')


def test_a_float_renders_alike_alone_in_a_list_and_in_a_matrix():
    """Floats of a list (every matrix entry) are formatted in place; the
    text is the one each float gets on its own, numpy scalar or not."""
    for x in EDGE_FLOATS:
        alone = dumps(x)
        assert dumps([x, np.float64(x)]) == f"[{alone},{alone}]"
        assert dumps(np.array([[x]])) == f"[[[{alone}]],[[0.0]]]"
