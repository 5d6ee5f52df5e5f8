"""Synthetic scene generation."""

from distilldet import data


def test_small_images_skip_figures_too_tall_to_fit():
    # 64 px is a legal image height, below the tallest figure band (72 px)
    params = data.SceneParams(n_train=12, n_test=2, image_height=64, image_width=96)
    train, test = data.generate_dataset(params, seed=7)
    for scene in train + test:
        assert scene.image.data.shape == (3, 64, 96)
        for g in scene.gts:
            assert 1 <= g.x1 < g.x2 <= 95 and 1 <= g.y1 < g.y2 <= 63
