"""A model's trainable tensors, for the tests that walk them."""


def trainable_params(model):
    """(layer position, attribute, array) for every trainable tensor, in blob order."""
    for pos, ly in enumerate(model.layers):
        for attr in ly.TRAINABLE:
            arr = getattr(ly, attr)
            if arr is not None:
                yield pos, attr, arr
